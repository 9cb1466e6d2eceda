"""Benchmark measurement logic shared by the ``benchmarks/`` harness.

The central trick mirrors the paper's methodology: run each benchmark's
abstract interpretation once with the optimised octagon while
*capturing every full-closure input* (DBM + maintained partition), then
replay the identical closure workload through each closure
implementation under timing.  That gives the closure-level comparisons
(Fig. 6 and the Fig. 7 per-closure trace) on exactly the DBMs the
analysis produced.  End-to-end rows (Fig. 8, Table 3) re-run the whole
analysis per domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.closure_apron import closure_apron
from ..core.closure_dense import closure_dense_numpy
from ..core.closure_reference import closure_full_numpy
from ..core.densemat import count_nni
from ..core.halfmat import HalfMat
from ..core.kinds import DEFAULT_POLICY
from ..core.octagon import Octagon
from ..core.partition import Partition
from ..workloads.analyzers import run_workload
from ..workloads.suite import Benchmark


@dataclass
class ClosureEvent:
    """Timings of one captured closure input under each implementation."""

    n: int
    kind: str  # kind the OptOctagon dispatch chose
    t_apron: float
    t_fw: float
    t_dense: float
    t_opt: float


@dataclass
class ClosureComparison:
    """Fig. 6 aggregates + the Fig. 7 per-closure trace."""

    benchmark: str
    events: List[ClosureEvent] = field(default_factory=list)

    def aggregate(self, attr: str) -> float:
        return sum(getattr(e, attr) for e in self.events)

    @property
    def fw_speedup(self) -> float:
        """Fig. 6 gray bar: vectorised Floyd-Warshall over APRON."""
        fw = self.aggregate("t_fw")
        return self.aggregate("t_apron") / fw if fw > 0 else 0.0

    @property
    def opt_speedup(self) -> float:
        """Fig. 6 black bar: the OptOctagon closure over APRON."""
        opt = self.aggregate("t_opt")
        return self.aggregate("t_apron") / opt if opt > 0 else 0.0


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def closure_comparison(benchmark: Benchmark, *, scale: Optional[str] = None,
                       max_events: Optional[int] = None) -> ClosureComparison:
    """Capture the benchmark's closure workload and replay it through
    APRON / FW / Dense / OptOctagon closure implementations."""
    run = run_workload(benchmark, "octagon", scale=scale, capture_closures=True)
    events: List[ClosureEvent] = []
    inputs = run.closure_inputs
    if max_events is not None:
        inputs = inputs[:max_events]
    for mat, blocks in inputs:
        n = mat.shape[0] // 2
        half = HalfMat.from_full(mat)
        t_apron = _time(lambda: closure_apron(half))
        fw_mat = mat.copy()
        t_fw = _time(lambda: closure_full_numpy(fw_mat))
        dn_mat = mat.copy()
        t_dense = _time(lambda: closure_dense_numpy(dn_mat))
        # The OptOctagon dispatch: rebuild the octagon exactly as the
        # analysis had it (same matrix, same maintained partition).
        oct_mat = mat.copy()
        part = Partition(n, blocks)
        nni = count_nni(oct_mat)
        oct_ = Octagon(n, oct_mat, part, nni, closed=False, policy=DEFAULT_POLICY)
        kind = str(oct_.kind)
        t_opt = _time(oct_._close_in_place)
        events.append(ClosureEvent(n, kind, t_apron, t_fw, t_dense, t_opt))
    return ClosureComparison(benchmark.name, events)


def fig8_row(benchmark: Benchmark, *, scale: Optional[str] = None) -> Dict[str, object]:
    """End-to-end octagon-analysis speedup (Fig. 8)."""
    opt = run_workload(benchmark, "octagon", scale=scale)
    apron = run_workload(benchmark, "apron", scale=scale)
    speedup = apron.octagon_seconds / max(opt.octagon_seconds, 1e-12)
    return {
        "benchmark": benchmark.name,
        "analyzer": benchmark.analyzer,
        "apron_oct_s": apron.octagon_seconds,
        "opt_oct_s": opt.octagon_seconds,
        "speedup": speedup,
        "paper_speedup": benchmark.paper.oct_speedup,
        "copies_avoided": opt.counters.get("copies_avoided", 0),
        "workspace_hits": opt.counters.get("workspace_hits", 0),
        "closure_cache_hits": opt.counters.get("closure_cache_hits", 0),
        "plans_compiled": opt.counters.get("plans_compiled", 0),
        "plan_exec": opt.counters.get("plan_exec", 0),
        "constraints_batched": opt.counters.get("constraints_batched", 0),
        "closures_avoided": opt.counters.get("closures_avoided", 0),
    }


def table2_row(benchmark: Benchmark, *, scale: Optional[str] = None) -> Dict[str, object]:
    """Closure statistics (Table 2), measured vs paper."""
    run = run_workload(benchmark, "octagon", scale=scale)
    return {
        "benchmark": benchmark.name,
        "analyzer": benchmark.analyzer,
        "nmin": run.nmin,
        "nmax": run.nmax,
        "closures": run.closures,
        "paper_nmin": benchmark.paper.nmin,
        "paper_nmax": benchmark.paper.nmax,
        "paper_closures": benchmark.paper.closures,
    }


def table3_row(benchmark: Benchmark, *, scale: Optional[str] = None,
               aux_passes: int = 3) -> Dict[str, object]:
    """End-to-end program analysis comparison (Table 3)."""
    opt = run_workload(benchmark, "octagon", scale=scale, aux_passes=aux_passes)
    apron = run_workload(benchmark, "apron", scale=scale, aux_passes=aux_passes)
    return {
        "benchmark": benchmark.name,
        "analyzer": benchmark.analyzer,
        "apron_total_s": apron.total_seconds,
        "apron_pct_oct": apron.pct_octagon,
        "opt_total_s": opt.total_seconds,
        "opt_pct_oct": opt.pct_octagon,
        "speedup": apron.total_seconds / max(opt.total_seconds, 1e-12),
        "paper_speedup": benchmark.paper.program_speedup,
        "paper_apron_pct_oct": benchmark.paper.apron_pct_oct,
        "copies_avoided": opt.counters.get("copies_avoided", 0),
        "workspace_hits": opt.counters.get("workspace_hits", 0),
        "closure_cache_hits": opt.counters.get("closure_cache_hits", 0),
        "plans_compiled": opt.counters.get("plans_compiled", 0),
        "plan_exec": opt.counters.get("plan_exec", 0),
        "constraints_batched": opt.counters.get("constraints_batched", 0),
        "closures_avoided": opt.counters.get("closures_avoided", 0),
    }
