"""The end-to-end analyzer: source text in, invariants and checks out.

:class:`Analyzer` composes the substrate -- lexer/parser, CFG builder
and fixpoint engine -- around a pluggable abstract domain.  This is the
role CPAchecker/TouchBoost/DPS/DIZY play in the paper: a host analysis
that drives the octagon library through its API.  Swapping
``domain="octagon"`` for ``domain="apron"`` re-runs the identical
analysis on the baseline implementation, which is exactly how the
paper's Figure 8 / Table 3 comparisons are reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core import stats
from ..core.budget import Budget
from ..obs import metrics, trace
from ..domains.domain import DomainFactory, get_domain
from ..errors import AnalysisInterrupted
from ..frontend.ast_nodes import Assert, Procedure, Program
from ..frontend.cfg import CFG, build_cfg
from ..frontend.parser import parse_program
from .fixpoint import FixpointEngine, FixpointResult
from .transfer import apply_assume

#: The precision degradation ladder: when a procedure exhausts its
#: budget at one rung, the analyzer retries it one rung down with a
#: fresh budget.  Every rung is strictly cheaper (zones drop the
#: sum constraints, intervals drop all relational information), so a
#: descent terminates; every rung is an over-approximation of the one
#: above it, so the degraded invariants are sound -- some checks just
#: become unknown instead of verified.
LADDER = {
    "octagon": ("octagon", "zone", "interval"),
    "apron": ("apron", "zone", "interval"),
    "zone": ("zone", "interval"),
    "pentagon": ("pentagon", "interval"),
    "interval": ("interval",),
}

metrics.REGISTRY.counter("degradations",
                         "Procedures retried at a lower precision rung")
metrics.REGISTRY.counter("fixpoint_runs",
                         "Fixpoint solves started (one per procedure per "
                         "ladder rung attempted)")


@dataclass
class CheckResult:
    """Outcome of one assertion."""

    procedure: str
    node: int
    cond_text: str
    verified: bool


@dataclass
class ProcedureResult:
    name: str
    cfg: CFG
    fixpoint: FixpointResult
    checks: List[CheckResult]
    #: Domain that actually produced the invariants (may be a lower
    #: ladder rung than the analyzer's configured domain).
    domain_used: str = ""
    #: True when the procedure was re-run at a lower rung, or fell all
    #: the way through to synthesized top states.
    degraded: bool = False
    #: True when even the last rung exhausted its budget and the
    #: invariants are the trivial (sound) top states.
    exhausted: bool = False

    def invariant_at_exit(self):
        return self.fixpoint.at(self.cfg.exit)

    def box_at_exit(self) -> List[Tuple[float, float]]:
        return self.invariant_at_exit().to_box()


@dataclass
class AnalysisResult:
    procedures: List[ProcedureResult]
    seconds: float
    octagon_stats: Optional[stats.StatsCollector] = None

    @property
    def checks(self) -> List[CheckResult]:
        return [c for proc in self.procedures for c in proc.checks]

    @property
    def all_verified(self) -> bool:
        return all(c.verified for c in self.checks)

    @property
    def degraded(self) -> bool:
        return any(proc.degraded for proc in self.procedures)

    def procedure(self, name: str) -> ProcedureResult:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(name)


@dataclass
class Analyzer:
    """A ready-to-run static analyzer over a numerical domain."""

    domain: Union[str, DomainFactory] = "octagon"
    widening_delay: int = 2
    narrowing_steps: int = 3
    widening_thresholds: Sequence[float] = field(default_factory=tuple)
    integer_mode: bool = True
    compile_transfer: bool = True
    #: Resource budget per procedure *attempt* (each ladder rung gets a
    #: fresh budget): wall-clock seconds, fixpoint iterations, DBM
    #: cells of closure traffic.  ``None`` means unbounded.
    time_budget: Optional[float] = None
    iteration_budget: Optional[int] = None
    cell_budget: Optional[int] = None
    #: Descend the precision ladder on budget exhaustion instead of
    #: propagating :class:`~repro.errors.AnalysisInterrupted`.
    degrade: bool = True

    def _budgeted(self) -> bool:
        return (self.time_budget is not None
                or self.iteration_budget is not None
                or self.cell_budget is not None)

    def _fresh_budget(self) -> Optional[Budget]:
        if not self._budgeted():
            return None
        return Budget(time_limit=self.time_budget,
                      max_iterations=self.iteration_budget,
                      max_cells=self.cell_budget)

    def _rung_factory(self, rung: Union[str, DomainFactory]):
        """Resolve a ladder rung to a factory."""
        return get_domain(rung) if isinstance(rung, str) else rung

    def _rungs(self) -> List[Union[str, DomainFactory]]:
        """The domains to try for each procedure, most precise first."""
        if isinstance(self.domain, str) and self.degrade:
            return list(LADDER.get(self.domain, (self.domain,)))
        return [self.domain]

    def analyze(self, source_or_program: Union[str, Program, Procedure],
                *, collect: bool = False) -> AnalysisResult:
        """Analyze a source string / Program / Procedure.

        With ``collect=True`` a fresh stats collector records octagon
        operator timings and closure events for the benchmarks.
        """
        if isinstance(source_or_program, str):
            with trace.span("parse"):
                program = parse_program(source_or_program)
        elif isinstance(source_or_program, Procedure):
            program = Program([source_or_program])
        else:
            program = source_or_program
        engine = FixpointEngine(
            widening_delay=self.widening_delay,
            narrowing_steps=self.narrowing_steps,
            widening_thresholds=self.widening_thresholds,
            integer_mode=self.integer_mode,
            compile_transfer=self.compile_transfer,
        )
        start = time.perf_counter()
        results: List[ProcedureResult] = []
        collector: Optional[stats.StatsCollector] = None

        def rung_name(rung) -> str:
            return rung if isinstance(rung, str) else getattr(
                rung, "name", type(rung).__name__)

        def solve(cfg: CFG) -> Tuple[FixpointResult, str, bool, bool]:
            """One procedure down the ladder: (fixpoint, domain_used,
            degraded, exhausted)."""
            rungs = self._rungs()
            last_exc: Optional[AnalysisInterrupted] = None
            for i, rung in enumerate(rungs):
                factory = self._rung_factory(rung)
                with trace.span("rung", domain=rung_name(rung)) as sp:
                    try:
                        stats.bump("fixpoint_runs")
                        fix = engine.analyze(cfg, factory,
                                             budget=self._fresh_budget())
                    except AnalysisInterrupted as exc:
                        stats.bump("budget_interrupts")
                        sp.set(interrupted=True)
                        if not self.degrade:
                            raise
                        stats.bump("degradations")
                        last_exc = exc
                        continue
                return fix, rung_name(rung), i > 0, False
            # Every rung exhausted its budget: fall back to the trivial
            # sound answer -- top at every node, one state shared by
            # all of them.  The checks become unknown, never wrong.
            top = self._rung_factory(rungs[-1]).top(len(cfg.variables))
            fix = FixpointResult(dict.fromkeys(range(cfg.n_nodes), top),
                                 last_exc.iterations if last_exc else 0, 0, 0)
            return fix, rung_name(rungs[-1]), True, True

        def run() -> None:
            for proc in program.procedures:
                with trace.span("procedure", name=proc.name) as sp:
                    cfg = build_cfg(proc)
                    fix, used, degraded, exhausted = solve(cfg)
                    sp.set(domain=used, degraded=degraded)
                    checks = [self._discharge(proc.name, cfg, fix, node, chk)
                              for node, chk in cfg.checks]
                results.append(ProcedureResult(
                    proc.name, cfg, fix, checks, domain_used=used,
                    degraded=degraded, exhausted=exhausted))

        if collect:
            with stats.collecting() as collector:
                run()
        else:
            run()
        elapsed = time.perf_counter() - start
        return AnalysisResult(results, elapsed, collector)

    def _discharge(self, proc_name: str, cfg: CFG, fix: FixpointResult,
                   node: int, check: Assert) -> CheckResult:
        """An assertion holds if the invariant cannot violate it."""
        from ..frontend.pretty import pretty_bexpr

        state = fix.at(node)
        if state.is_bottom():
            verified = True  # unreachable code satisfies everything
        else:
            violating = apply_assume(state, check.cond, cfg.var_index,
                                     negate=True, integer_mode=self.integer_mode)
            verified = violating.is_bottom()
        return CheckResult(proc_name, node, pretty_bexpr(check.cond), verified)


def analyze_source(source: str, *, domain: str = "octagon", **kwargs) -> AnalysisResult:
    """One-call convenience wrapper around :class:`Analyzer`."""
    return Analyzer(domain=domain, **kwargs).analyze(source)
