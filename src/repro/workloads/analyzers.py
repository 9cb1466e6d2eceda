"""Run a benchmark workload through the analyzer with a chosen domain.

:func:`run_workload` is the measurement entry point used by every
benchmark: it parses the benchmark's generated program once, runs the
full abstract interpretation with the requested octagon implementation
under a stats collector, and returns wall times split into octagon
time vs. everything else, plus the closure statistics of Table 2.

The optional auxiliary passes (liveness, reaching definitions, constant
propagation over the same CFGs) model the non-octagon components of the
paper's host analyzers for the Table 3 comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.analyzer import Analyzer
from ..core import stats
from ..dataflow import constant_propagation, liveness, reaching_definitions
from ..frontend.cfg import build_cfg
from ..frontend.parser import parse_program
from .suite import Benchmark


@dataclass
class WorkloadRun:
    """Measurements from one benchmark run under one domain."""

    benchmark: str
    domain: str
    total_seconds: float
    octagon_seconds: float
    closures: int
    nmin: int
    nmax: int
    op_seconds: Dict[str, float] = field(default_factory=dict)
    closure_records: List[stats.ClosureRecord] = field(default_factory=list)
    closure_inputs: List[tuple] = field(default_factory=list)
    checks_verified: int = 0
    checks_total: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def pct_octagon(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return 100.0 * self.octagon_seconds / self.total_seconds


def run_workload(
    benchmark: Benchmark,
    domain: str,
    *,
    scale: Optional[str] = None,
    aux_passes: int = 0,
    capture_closures: bool = False,
    widening_delay: int = 2,
    compile_transfer: bool = True,
) -> WorkloadRun:
    """Analyze one benchmark's generated program with one domain.

    ``aux_passes`` repeats the auxiliary dataflow analyses that many
    times over every procedure's CFG, modelling the non-octagon
    analyzer components (Table 3); 0 measures pure octagon analysis
    (Fig. 8).
    """
    source = benchmark.source(scale)
    analyzer = Analyzer(domain=domain, widening_delay=widening_delay,
                        narrowing_steps=3, compile_transfer=compile_transfer)
    start = time.perf_counter()
    with stats.collecting() as collector:
        collector.capture_closure_inputs = capture_closures
        # Front-end work (lexing/parsing) counts towards the end-to-end
        # time, as in the paper's Table 3.
        program = parse_program(source)
        result_checks = []
        for proc in program.procedures:
            res = analyzer.analyze(proc)
            result_checks.extend(res.checks)
        aux_seconds = 0.0
        if aux_passes:
            aux_start = time.perf_counter()
            for proc in program.procedures:
                cfg = build_cfg(proc)
                for _ in range(aux_passes):
                    liveness(cfg)
                    reaching_definitions(cfg)
                    constant_propagation(cfg)
            aux_seconds = time.perf_counter() - aux_start
    total = time.perf_counter() - start
    cstats = collector.closure_stats()
    return WorkloadRun(
        benchmark=benchmark.name,
        domain=domain,
        total_seconds=total,
        octagon_seconds=collector.octagon_seconds,
        closures=int(cstats["closures"]),
        nmin=int(cstats["nmin"]),
        nmax=int(cstats["nmax"]),
        op_seconds=dict(collector.op_seconds),
        closure_records=list(collector.closures),
        closure_inputs=list(collector.closure_inputs),
        checks_verified=sum(1 for c in result_checks if c.verified),
        checks_total=len(result_checks),
        counters=collector.counter_summary(),
    )
