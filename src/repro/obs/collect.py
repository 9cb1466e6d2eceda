"""Scoped measurement collection: operator timers, closures, counters.

This is the engine behind ``repro.core.stats`` (now a compatibility
shim).  A :class:`StatsCollector` scopes every measurement to one
analysis/job; :func:`collecting` installs one for a block.

* **One timing hook.**  :func:`timed_op` times every operator *and*
  closure call of the domains; timers nest on a per-collector stack,
  so :attr:`StatsCollector.octagon_seconds`, the sum of self times,
  counts a closure run inside ``substitute`` once.  Phase spans
  (parse, fixpoint, ...) stay in :mod:`repro.obs.trace` and never
  enter these tables.
* **Nested collectors.**  Collectors nest (a batch-level collector
  around per-job collectors).  ``bump()`` events now propagate to
  every collector on the stack, so an inner collector no longer steals
  the outer one's per-event counters; global-source deltas were always
  safe (each collector snapshots its own base) and are pinned by tests
  now.
* **Histograms.**  When metrics collection is enabled for the run
  (:func:`repro.obs.metrics.set_enabled`), the collector also feeds
  closure-size, closure-latency and per-operator-latency histograms
  declared in the metrics registry.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from . import metrics, trace

# Histogram declarations for the distributions this module observes.
metrics.REGISTRY.histogram(
    "closure_size", "Variables per full closure call",
    buckets=metrics.SIZE_BUCKETS, label="kind")
metrics.REGISTRY.histogram(
    "closure_seconds", "Wall seconds per closure call",
    buckets=metrics.LATENCY_BUCKETS, label="kind")
metrics.REGISTRY.histogram(
    "op_seconds", "Wall seconds per domain operator call",
    buckets=metrics.LATENCY_BUCKETS, label="op")


@dataclass
class ClosureRecord:
    """One closure call observed during an analysis."""

    n: int  # number of variables in the DBM
    kind: str  # DBM kind the closure ran on: dense/sparse/decomposed/top
    seconds: float
    components: int = 1  # component count for decomposed closures


@dataclass
class StatsCollector:
    """Accumulates operator timings, closure records and counters.

    With ``capture_closure_inputs`` set, every *full* closure performed
    by the optimised octagon also stores a copy of its input DBM and
    component partition, so the Fig. 7 benchmark can replay the exact
    same closure workload through every closure implementation.
    """

    #: Inclusive wall time per operator (a nested operator's time is
    #: counted in its parent too -- do not sum this across operators).
    op_seconds: Dict[str, float] = field(default_factory=dict)
    op_calls: Dict[str, int] = field(default_factory=dict)
    #: Exclusive (self) wall time per operator; sums without overlap.
    #: Closures are rows here too (``closure``, ``closure_inc``).
    op_self_seconds: Dict[str, float] = field(default_factory=dict)
    closures: List[ClosureRecord] = field(default_factory=list)
    capture_closure_inputs: bool = False
    closure_inputs: List[tuple] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    counter_base: Dict[str, int] = field(
        default_factory=metrics.global_counters)
    #: Distribution collection (off unless metrics export is on).
    histograms_enabled: bool = field(default_factory=metrics.enabled)
    histograms: Dict[str, metrics.HistogramData] = field(default_factory=dict)
    #: Active ``timed_op`` timers, innermost last.
    _op_stack: List["_Timer"] = field(default_factory=list, repr=False,
                                      compare=False)
    #: Set on ``collecting()`` exit: global-source deltas are folded in
    #: and the collector stops watching the process-wide counters.
    _counters_frozen: bool = field(default=False, repr=False, compare=False)

    def record_op(self, name: str, seconds: float,
                  self_seconds: Optional[float] = None) -> None:
        if self_seconds is None:
            self_seconds = seconds
        self.op_seconds[name] = self.op_seconds.get(name, 0.0) + seconds
        self.op_calls[name] = self.op_calls.get(name, 0) + 1
        self.op_self_seconds[name] = (
            self.op_self_seconds.get(name, 0.0) + self_seconds)
        if self.histograms_enabled:
            self.observe("op_seconds", seconds, name)

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def bump_max(self, name: str, value: int) -> None:
        """Record a high-water mark: the counter keeps the maximum value
        observed instead of a running sum (e.g. peak DBM bytes)."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def record_closure(self, record: ClosureRecord) -> None:
        self.closures.append(record)
        if self.histograms_enabled:
            self.observe("closure_size", record.n, record.kind)
            self.observe("closure_seconds", record.seconds, record.kind)

    def observe(self, name: str, value: float,
                label_value: Optional[str] = None) -> None:
        """Feed one observation into a registry-declared histogram."""
        key = metrics.histogram_key(name, label_value)
        data = self.histograms.get(key)
        if data is None:
            spec = metrics.REGISTRY.get(name)
            bounds = spec.buckets if spec is not None else metrics.LATENCY_BUCKETS
            data = metrics.HistogramData(name, bounds, label_value)
            self.histograms[key] = data
        data.observe(value)

    def histograms_export(self) -> Dict[str, Dict]:
        """JSON-clean snapshot of every histogram series."""
        return {key: data.to_dict() for key, data in self.histograms.items()}

    # ------------------------------------------------------------------
    # summaries used by the benchmark harness
    # ------------------------------------------------------------------
    @property
    def octagon_seconds(self) -> float:
        """Total domain time: the sum of operator and closure self
        times.  Exact by construction -- closures are frames on the
        same timer stack as operators, so nothing is counted twice."""
        return sum(self.op_self_seconds.values())

    @property
    def full_closures(self) -> List[ClosureRecord]:
        """Full (cubic) closures; incremental re-closures excluded."""
        return [rec for rec in self.closures if "incremental" not in rec.kind]

    def closure_stats(self) -> Dict[str, float]:
        """The Table 2 statistics: nmin, nmax and #closures."""
        full = self.full_closures
        if not full:
            return {"nmin": 0, "nmax": 0, "closures": 0,
                    "incremental": len(self.closures)}
        sizes = [rec.n for rec in full]
        return {
            "nmin": min(sizes),
            "nmax": max(sizes),
            "closures": len(full),
            "incremental": len(self.closures) - len(full),
        }

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def merged_counters(self) -> Dict[str, int]:
        """Per-event ``bump`` counters plus the global-source deltas
        accumulated since this collector was installed (or last
        frozen)."""
        merged = dict(self.counters)
        if not self._counters_frozen:
            for name, value in metrics.global_counters().items():
                delta = value - self.counter_base.get(name, 0)
                if delta:
                    merged[name] = merged.get(name, 0) + delta
        return merged

    def freeze_counters(self) -> None:
        """Fold the global-source deltas seen so far into ``counters``
        and stop watching the process-wide counters.  ``collecting()``
        calls this on exit so a collector read *after* its block
        reports what happened inside the block, not whatever the
        process did afterwards."""
        for name, value in metrics.global_counters().items():
            delta = value - self.counter_base.get(name, 0)
            if delta:
                self.counters[name] = self.counters.get(name, 0) + delta
        self._counters_frozen = True

    @property
    def copies_avoided(self) -> int:
        """Matrix copies the COW layer never had to perform.

        Eager semantics pay one copy per ``copy()`` call; COW pays one
        copy per materialisation, so the difference is the saving.  At
        most one materialisation exists per clone (the last owner of a
        share group writes in place), so this is never negative.
        """
        merged = self.merged_counters()
        return (merged.get("cow_clones", 0)
                - merged.get("cow_materializations", 0))

    def counter_summary(self) -> Dict[str, int]:
        """Every counter declared in the metrics registry (derived ones
        computed), in registration order -- no hand-maintained list."""
        return metrics.REGISTRY.counter_summary(self.merged_counters())


# The collector stack, **per thread**: the analysis server runs one
# ``collecting()`` block per request on concurrent handler threads, so
# a process-global stack would interleave push/pop from different
# requests (breaking nesting restoration) and cross-wire their
# ``bump`` events.  ``active`` is kept as its own attribute so the
# no-collector hot path stays one attribute load + test.
_TLS = threading.local()


def _stack() -> List[StatsCollector]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def active_collector() -> Optional[StatsCollector]:
    """The collector currently receiving events on this thread, or None."""
    return getattr(_TLS, "active", None)


@contextmanager
def collecting() -> Iterator[StatsCollector]:
    """Install a fresh collector for the duration of the block.

    Collectors nest *per thread*: timings and closure records go to the
    innermost collector only, while ``bump`` counters propagate to
    every collector on this thread's stack and global-source deltas are
    computed per collector from its own installation snapshot -- so an
    outer collector observes everything that happened inside inner
    blocks.  A collector never sees another thread's ``bump`` events;
    global-source counters (module-global tallies like the COW clone
    and workspace counts) remain process-wide, so their deltas can
    still include concurrent threads' work.
    """
    previous = getattr(_TLS, "active", None)
    collector = StatsCollector()
    _stack().append(collector)
    _TLS.active = collector
    try:
        yield collector
    finally:
        _stack().pop()
        _TLS.active = previous
        collector.freeze_counters()


class _Timer:
    """One live operator or closure call; see :func:`timed_op`."""

    __slots__ = ("collector", "name", "attrs", "start", "child")

    def __init__(self, collector: Optional[StatsCollector], name: str,
                 attrs: dict) -> None:
        self.collector = collector
        self.name = name
        self.attrs = attrs
        self.child = 0.0  # nested timers' elapsed seconds accumulate here

    def __enter__(self) -> "_Timer":
        if self.collector is not None:
            self.collector._op_stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        elapsed = end - self.start
        collector = self.collector
        if collector is not None:
            stack = collector._op_stack
            stack.pop()
            if stack:
                stack[-1].child += elapsed
            collector.record_op(self.name, elapsed, elapsed - self.child)
            attrs = self.attrs
            if "kind" in attrs:
                collector.record_closure(ClosureRecord(
                    attrs["n"], attrs["kind"], elapsed, attrs["components"]))
        trace.emit(self.name, self.start, end, args=self.attrs)


def timed_op(name: str, /, **attrs):
    """Time one operator or closure call of an octagon, zone or APRON
    element -- the one timing hook of the domains.

    One ``perf_counter`` pair feeds the active collector's call,
    inclusive-time and self-time tables (a nested timer's elapsed time
    leaves its parent's self time, so self times sum without overlap),
    the ``op_seconds`` histogram, and -- when tracing is on -- one
    Chrome ``X`` event whose args are ``attrs``.  A closure passes
    ``n``, ``kind`` and ``components``: that also records a
    :class:`ClosureRecord` and feeds the closure histograms.  With no
    collector and tracing off this is the tracer's shared no-op span.
    """
    collector = getattr(_TLS, "active", None)
    if collector is None and not trace.enabled():
        return trace.NULL_SPAN
    return _Timer(collector, name, attrs)


def capture_closure_input(matrix, blocks) -> None:
    """Store a copy of a full-closure input (matrix and partition
    blocks) when the active collector captures them; the copy is not
    paid otherwise."""
    active = getattr(_TLS, "active", None)
    if active is not None and active.capture_closure_inputs:
        active.closure_inputs.append(
            (matrix.copy(), [list(block) for block in blocks]))


def bump(name: str, amount: int = 1) -> None:
    """Increment a named counter on every collector active on this
    thread (no-op otherwise) -- inner collectors must not steal the
    outer's events."""
    if getattr(_TLS, "active", None) is None:
        return
    for collector in _stack():
        collector.bump(name, amount)


def bump_max_many(gauges) -> None:
    """Raise each ``(name, value)`` high-water-mark counter on every
    collector active on this thread, in one walk of the stack (no-op
    otherwise); see :meth:`StatsCollector.bump_max`."""
    if getattr(_TLS, "active", None) is None:
        return
    for collector in _stack():
        for name, value in gauges:
            collector.bump_max(name, value)


class OpCounter:
    """Counts scalar DBM operations for complexity verification.

    One ``count`` unit is one *candidate tightening*: evaluating
    ``min(O_ij, O_ik + O_kj)`` (one add + one compare), the unit the
    paper uses when stating ``16n^3 + 22n^2 + 6n``.
    """

    __slots__ = ("mins",)

    def __init__(self) -> None:
        self.mins = 0

    def tick(self, amount: int = 1) -> None:
        self.mins += amount

    def reset(self) -> None:
        self.mins = 0


__all__ = [
    "ClosureRecord",
    "OpCounter",
    "StatsCollector",
    "active_collector",
    "bump",
    "bump_max_many",
    "capture_closure_input",
    "collecting",
    "timed_op",
]
