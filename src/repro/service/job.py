"""The batch job model: content-addressed jobs, structured results.

An :class:`AnalysisJob` is everything needed to reproduce one analysis:
the source text plus the analyzer options that influence its outcome.
Its :meth:`~AnalysisJob.key` is the SHA-256 of the source and the
*normalised* options, so two jobs with the same semantics share a key
regardless of option ordering or tuple-vs-list spelling -- the property
the persistent result cache relies on.

A :class:`JobResult` is deliberately dumb data: strings, floats, bools,
lists and dicts only.  It crosses process boundaries by pickling (the
scheduler's workers ship it back over a pipe) and round-trips through
JSON (:func:`repro.core.serialize.job_result_to_dict`), which is the
single schema shared by cache entries and ``--json`` output.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# The whole compute path is imported here, eagerly: batch workers and
# serve pool workers are forked from a process that imported this
# module, so nothing ``execute_job`` runs is compiled again per child.
from ..analysis.analyzer import Analyzer
from ..core import stats
from ..core.bounds import INF
from ..obs import trace
from ..testing import faults

OUTCOME_OK = "ok"
#: The analysis completed, but only after descending the precision
#: ladder (or synthesizing top states) because a resource budget ran
#: out.  The verdicts are sound; some checks are unknown instead of
#: verified.
OUTCOME_DEGRADED = "degraded"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"

OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_TIMEOUT, OUTCOME_ERROR)

#: Outcomes that carry a sound analysis answer (vs. no answer at all).
COMPLETED_OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED)


@dataclass(frozen=True)
class AnalysisJob:
    """One unit of batch work: a source program plus analyzer options."""

    source: str
    label: str = ""
    domain: str = "octagon"
    widening_delay: int = 2
    narrowing_steps: int = 3
    widening_thresholds: Tuple[float, ...] = ()
    integer_mode: bool = True
    compile_transfer: bool = True
    #: Per-procedure-attempt resource budgets (None = unbounded); see
    #: :class:`repro.core.budget.Budget` and the analyzer's degradation
    #: ladder.
    time_budget: Optional[float] = None
    iteration_budget: Optional[int] = None
    cell_budget: Optional[int] = None
    #: Ship per-procedure exit DBMs back with the result.  Included in
    #: the cache key: it changes what the result contains.
    keep_invariants: bool = False
    #: Telemetry requested for this job's execution: any of ``"trace"``
    #: (record spans and ship them back with the result) and
    #: ``"metrics"`` (collect histogram distributions).  Observation
    #: only -- it cannot change the analysis result.
    telemetry: Tuple[str, ...] = ()

    @classmethod
    def for_procedure(cls, proc, **options) -> "AnalysisJob":
        """A single-procedure job keyed by *canonical* source.

        The source is the pretty-printer's rendering of the procedure
        AST (:func:`repro.frontend.fingerprint.procedure_source`), so
        the job's :meth:`key` is a per-procedure content address:
        stable under formatting changes and edits to *other* procedures
        in the same file.  This is the cache granularity the analysis
        server works at -- the analyzer treats procedures
        independently, so the result of this job is bit-identical to
        the procedure's slice of a whole-file analysis.
        """
        from ..frontend.fingerprint import procedure_source

        options.setdefault("label", proc.name)
        return cls(source=procedure_source(proc), **options)

    def options(self) -> Dict[str, object]:
        """The analyzer options in normalised (JSON-stable) form.

        ``label`` is presentation only and deliberately excluded: the
        same program under the same options is the same job whatever a
        caller chooses to call it.  ``telemetry`` is excluded for the
        same reason -- watching an analysis must not change its cache
        key.  ``compile_transfer`` *is* included
        even though compiled and interpreted runs produce identical
        results: the cache key stays an honest description of how the
        result was computed.  The budgets are included too -- a tightly
        budgeted run can legitimately produce different (degraded)
        verdicts than an unbounded one, so they must not share a key.
        ``keep_invariants`` changes the result's *content* (it adds the
        exit DBMs), so it is a key component in the ordinary sense.
        """
        return {
            "domain": self.domain,
            "keep_invariants": bool(self.keep_invariants),
            "widening_delay": int(self.widening_delay),
            "narrowing_steps": int(self.narrowing_steps),
            "widening_thresholds": [float(t) for t in self.widening_thresholds],
            "integer_mode": bool(self.integer_mode),
            "compile_transfer": bool(self.compile_transfer),
            "time_budget": (None if self.time_budget is None
                            else float(self.time_budget)),
            "iteration_budget": (None if self.iteration_budget is None
                                 else int(self.iteration_budget)),
            "cell_budget": (None if self.cell_budget is None
                            else int(self.cell_budget)),
        }

    def key(self) -> str:
        """Content-addressed identity: SHA-256 of source + options."""
        payload = json.dumps({"source": self.source, "options": self.options()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CheckVerdict:
    """Outcome of one assertion, in plain-data form."""

    procedure: str
    cond_text: str
    verified: bool


@dataclass
class ProcedureSummary:
    """Exit invariant of one procedure: variable bounds as a box.

    Bounds use ``None`` for an infinite endpoint so the summary is
    JSON-clean; ``box`` entries are two-element ``[lo, hi]`` lists.
    """

    name: str
    variables: List[str]
    reachable: bool
    box: List[List[Optional[float]]]


@dataclass
class JobResult:
    """Structured outcome of one job: verdicts, bounds, timings, counters.

    ``outcome`` is the failure taxonomy: ``ok`` (analysis completed --
    which says nothing about whether its assertions were *proved*),
    ``timeout`` (the scheduler killed the worker at the deadline) or
    ``error`` (the analysis raised, or the worker died, beyond the
    retry budget).  ``cached`` marks results served from the persistent
    cache and is excluded from equality so a cache hit compares equal
    to the fresh result it stored.
    """

    key: str
    label: str
    domain: str
    outcome: str
    seconds: float = 0.0
    octagon_seconds: float = 0.0
    attempts: int = 1
    compile_transfer: bool = True
    error: Optional[str] = None
    checks: List[CheckVerdict] = field(default_factory=list)
    procedures: List[ProcedureSummary] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-operator wall seconds (inclusive), self seconds (exclusive
    #: of nested operators -- these sum without overlap) and call
    #: counts, from the job's stats collector.
    op_seconds: Dict[str, float] = field(default_factory=dict)
    op_self_seconds: Dict[str, float] = field(default_factory=dict)
    op_calls: Dict[str, int] = field(default_factory=dict)
    #: Histogram snapshots (``repro.obs.metrics.HistogramData.to_dict``
    #: keyed by series), present when the job ran with metrics on.
    histograms: Dict[str, Dict] = field(default_factory=dict)
    #: Per-procedure domain that actually produced the invariants; a
    #: value below ``domain`` marks a ladder descent, ``"<top>"`` a
    #: full fall-through to synthesized top states.
    rungs: Dict[str, str] = field(default_factory=dict)
    #: Per-procedure exit DBMs (coherent ``float64`` matrices), present
    #: when the job ran with ``keep_invariants``.  Excluded from
    #: equality and from the JSON schema: array payloads ride the
    #: worker pipe but are not part of the portable result document.
    dbms: Dict[str, object] = field(default_factory=dict, compare=False)
    cached: bool = field(default=False, compare=False)
    #: Served from a batch journal during ``--resume`` (like ``cached``,
    #: excluded from equality).
    resumed: bool = field(default=False, compare=False)
    #: Chrome trace events recorded in the executing process.  Ships
    #: over the worker pipe (pickle) so the scheduler can re-parent the
    #: spans onto the job's lane; deliberately *not* part of the JSON
    #: schema or equality -- telemetry is not part of the result.
    trace_events: List[dict] = field(default_factory=list, compare=False)

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK

    @property
    def completed(self) -> bool:
        """The job produced a sound answer (``ok`` or ``degraded``)."""
        return self.outcome in COMPLETED_OUTCOMES

    @property
    def checks_total(self) -> int:
        return len(self.checks)

    @property
    def checks_verified(self) -> int:
        return sum(1 for c in self.checks if c.verified)

    @property
    def all_verified(self) -> bool:
        """True iff the analysis completed and proved every assertion."""
        return self.completed and all(c.verified for c in self.checks)

    def verdicts(self) -> List[Tuple[str, str, bool]]:
        """The assertion verdicts as comparable plain tuples."""
        return [(c.procedure, c.cond_text, c.verified) for c in self.checks]


def _bound(value: float) -> Optional[float]:
    if value == INF or value == -INF:
        return None
    return float(value)


def execute_job(job: AnalysisJob) -> JobResult:
    """Run one job to completion in the current process.

    This is the scheduler's default worker; exceptions propagate so the
    scheduler can apply its retry/error policy.  A fresh stats
    collector scopes the hot-path memory counters to this job.
    """
    if faults.fire("worker_kill", job.label):
        faults.kill_process()

    analyzer = Analyzer(
        domain=job.domain,
        widening_delay=job.widening_delay,
        narrowing_steps=job.narrowing_steps,
        widening_thresholds=job.widening_thresholds,
        integer_mode=job.integer_mode,
        compile_transfer=job.compile_transfer,
        time_budget=job.time_budget,
        iteration_budget=job.iteration_budget,
        cell_budget=job.cell_budget,
    )
    # Spans are recorded into a fresh session buffer: a forked worker
    # inherits the parent's buffer, so without the swap a job would ship
    # every event the parent had recorded before the fork.  The same
    # path runs inline (workers=1), where the session keeps the job's
    # events out of the global buffer for the scheduler to re-parent.
    session = (trace.session()
               if trace.enabled() or "trace" in job.telemetry
               else None)
    with session if session is not None else nullcontext():
        with stats.collecting() as collector:
            if "metrics" in job.telemetry:
                collector.histograms_enabled = True
            result = analyzer.analyze(job.source)

    checks = [CheckVerdict(c.procedure, c.cond_text, c.verified)
              for c in result.checks]
    procedures: List[ProcedureSummary] = []
    dbms: Dict[str, object] = {}
    for proc in result.procedures:
        state = proc.invariant_at_exit()
        reachable = not state.is_bottom()
        box: List[List[Optional[float]]] = []
        if reachable:
            box = [[_bound(lo), _bound(hi)] for lo, hi in state.to_box()]
            if job.keep_invariants:
                mat = getattr(state, "mat", None)
                if mat is not None:
                    # A private contiguous copy: the state's matrix may be
                    # a COW-shared page the analyzer still owns.
                    dbms[proc.name] = mat.copy()
        procedures.append(ProcedureSummary(
            name=proc.name,
            variables=list(proc.cfg.variables),
            reachable=reachable,
            box=box,
        ))
    counters = dict(collector.counter_summary())
    counters["closures"] = int(collector.closure_stats()["closures"])
    rungs = {proc.name: ("<top>" if proc.exhausted else proc.domain_used)
             for proc in result.procedures if proc.degraded}
    return JobResult(
        key=job.key(),
        label=job.label,
        domain=job.domain,
        outcome=OUTCOME_DEGRADED if result.degraded else OUTCOME_OK,
        seconds=result.seconds,
        octagon_seconds=collector.octagon_seconds,
        compile_transfer=job.compile_transfer,
        checks=checks,
        procedures=procedures,
        counters=counters,
        op_seconds=dict(collector.op_seconds),
        op_self_seconds=dict(collector.op_self_seconds),
        op_calls=dict(collector.op_calls),
        histograms=collector.histograms_export(),
        rungs=rungs,
        dbms=dbms,
        trace_events=session.events if session is not None else [],
    )


def jobs_from_files(paths: Sequence[str], **options) -> List[AnalysisJob]:
    """Build one job per source file, labelled with the file path."""
    jobs = []
    for path in paths:
        with open(path) as fh:
            jobs.append(AnalysisJob(source=fh.read(), label=str(path), **options))
    return jobs
