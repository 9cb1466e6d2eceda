"""Span-based tracing with Chrome trace-event export.

The paper's performance story is a *decomposition* -- per-closure
traces (Fig. 7), per-operator splits (Fig. 8) -- and aggregate timers
cannot answer "where did this one slow batch spend its time".  Spans
can: a :func:`span` context manager records one timed, named, nested
interval, and the whole run exports as Chrome trace-event JSON that
Perfetto / ``chrome://tracing`` renders as a flame chart
(``python -m repro batch --suite --trace out.json``).

Design constraints, in order:

1. **Disabled means free.**  Tracing is off by default and the entire
   disabled path of :func:`span` is one module-global test; hot loops
   that would pay even for building the ``attrs`` dict (the fixpoint
   engine's per-edge transfer calls) check :func:`enabled` once at
   setup and install instrumented closures only when tracing is on.
   The ``telemetry`` gate of ``benchmarks/bench_gates.py`` bounds this
   at 2% end to end.
2. **Cross-process.**  Batch jobs run in forked worker processes.  A
   worker opens a fresh :func:`session` around its job (so it never
   re-ships events inherited from the parent's buffer), returns its
   span events with the :class:`~repro.service.job.JobResult`, and the
   scheduler *re-parents* them: each job gets a synthetic thread lane
   in the parent trace, the job span is emitted on that lane, and the
   worker's events are rewritten onto it (:func:`adopt`).  Timestamps
   are ``time.perf_counter`` -- CLOCK_MONOTONIC on Linux, one epoch
   per boot, so parent and child clocks agree under ``fork``.
3. **Plain data.**  Events are dicts in the Chrome trace-event schema
   (``ph="X"`` complete events plus ``ph="M"`` metadata); they pickle
   across the worker pipe and dump as JSON without translation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, List, Optional

_ENABLED = False
_EVENTS: List[dict] = []
_LOCK = threading.Lock()

# Ambient request context (thread-local): the serve tier parks the
# active TraceContext here around each request so every layer below --
# down to the supervisor's dispatch path -- can stamp outgoing jobs
# without threading an argument through the executor contract.
_CONTEXT = threading.local()

# Small stable ids instead of raw thread idents: lane 0 is reserved,
# real threads count up from 1, synthetic job lanes from 1000.
_THREAD_IDS: Dict[int, int] = {}
_NEXT_LANE = 1000


def enabled() -> bool:
    """True when spans are being recorded in this process."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop all buffered events (does not change the enabled flag)."""
    with _LOCK:
        _EVENTS.clear()


def events() -> List[dict]:
    """A snapshot of the buffered events."""
    with _LOCK:
        return list(_EVENTS)


def _tid() -> int:
    ident = threading.get_ident()
    tid = _THREAD_IDS.get(ident)
    if tid is None:
        with _LOCK:
            tid = _THREAD_IDS.setdefault(ident, len(_THREAD_IDS) + 1)
    return tid


def current_lane() -> int:
    """The calling thread's stable trace lane id (public: the serve
    tier records it as :attr:`TraceContext.parent`)."""
    return _tid()


# ----------------------------------------------------------------------
# request-scoped trace context
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Identity of one serve request, propagated across the pool.

    Chrome ``ph="X"`` events carry no parent pointers -- nesting is
    implied by time containment within one ``(pid, tid)`` lane -- so
    the context is not a span *pointer* but a span *address*: the
    ``trace_id`` names the request, ``parent`` is the lane (thread id)
    of the originating ``serve_request`` span in the daemon, and
    ``deadline`` (absolute ``perf_counter`` seconds, or ``None``) rides
    along so workers can see the same budget the dispatcher enforces.
    Workers tag their spans with the id; :func:`adopt_into_current`
    rewrites them onto the caller's lane, where time containment under
    the still-open ``serve_request`` span restores the tree.
    """

    trace_id: str
    parent: int = 0
    deadline: Optional[float] = None


def new_trace_id() -> str:
    """A fresh 16-hex-digit request id (random, not time-derived)."""
    return uuid.uuid4().hex[:16]


def current_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext` of this thread, if any."""
    return getattr(_CONTEXT, "value", None)


@contextmanager
def context(ctx: Optional[TraceContext]):
    """Install ``ctx`` as this thread's ambient context for the block."""
    previous = getattr(_CONTEXT, "value", None)
    _CONTEXT.value = ctx
    try:
        yield ctx
    finally:
        _CONTEXT.value = previous


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One live span; appends a complete ("X") event on exit."""

    __slots__ = ("name", "attrs", "start")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span runs."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _append({
            "name": self.name, "cat": "repro", "ph": "X",
            "ts": self.start * 1e6, "dur": (end - self.start) * 1e6,
            "pid": os.getpid(), "tid": _tid(), "args": self.attrs,
        })


def span(name: str, /, **attrs):
    """Open a span; a shared no-op object when tracing is disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return Span(name, attrs)


def emit(name: str, start: float, end: float, *,
         tid: Optional[int] = None, args: Optional[dict] = None) -> None:
    """Record a completed span from explicit ``perf_counter`` endpoints.

    Kernel code that already measures its own elapsed time uses this
    instead of :func:`span` so the enabled path adds no second pair of
    clock reads and the disabled path is a single flag test.
    """
    if not _ENABLED:
        return
    _append({
        "name": name, "cat": "repro", "ph": "X",
        "ts": start * 1e6, "dur": (end - start) * 1e6,
        "pid": os.getpid(), "tid": _tid() if tid is None else tid,
        "args": args or {},
    })


def _append(event: dict) -> None:
    with _LOCK:
        _EVENTS.append(event)


# ----------------------------------------------------------------------
# worker sessions and re-parenting
# ----------------------------------------------------------------------
class session:
    """Collect spans into a fresh buffer, restoring the previous state.

    Used by :func:`repro.service.job.execute_job` in worker processes:
    under ``fork`` the child inherits the parent's event buffer, so a
    job must swap in an empty one to ship only its own spans.  Works
    inline too -- the scheduler removes the job's events from the
    global buffer here and re-adds them onto the job's lane, so inline
    and forked jobs take the identical re-parenting path.
    """

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._saved: Optional[List[dict]] = None
        self._saved_enabled = False

    def __enter__(self) -> "session":
        global _EVENTS, _ENABLED
        with _LOCK:
            self._saved = _EVENTS
            self._saved_enabled = _ENABLED
            _EVENTS = self.events
        _ENABLED = True
        return self

    def __exit__(self, *exc_info) -> None:
        global _EVENTS, _ENABLED
        with _LOCK:
            _EVENTS = self._saved
        _ENABLED = self._saved_enabled


def new_lane(label: str) -> int:
    """Allocate a synthetic thread lane (for one batch job) and name it."""
    global _NEXT_LANE
    with _LOCK:
        lane = _NEXT_LANE
        _NEXT_LANE += 1
        _EVENTS.append({
            "name": "thread_name", "ph": "M", "pid": os.getpid(),
            "tid": lane, "args": {"name": label},
        })
    return lane


def adopt(worker_events: List[dict], lane: int) -> int:
    """Re-parent a worker's span events onto a lane of this process.

    Rewrites ``pid``/``tid`` so the worker's spans nest under the job
    span the scheduler emitted on ``lane``; metadata events from the
    worker are dropped (the lane already has its name).  Returns the
    number of events adopted.
    """
    pid = os.getpid()
    adopted = 0
    with _LOCK:
        for event in worker_events:
            if event.get("ph") == "M":
                continue
            copied = dict(event)
            args = dict(copied.get("args") or {})
            args.setdefault("worker_pid", event.get("pid"))
            copied["args"] = args
            copied["pid"] = pid
            copied["tid"] = lane
            _EVENTS.append(copied)
            adopted += 1
    return adopted


def adopt_into_current(worker_events: List[dict],
                       trace_id: Optional[str] = None) -> int:
    """Re-parent a worker's span events onto the *calling thread's* lane.

    The serve path's analogue of :func:`adopt`: where the batch
    scheduler gives each job a synthetic lane, a serve request wants
    the worker's spans nested under the ``serve_request`` span that is
    still open on this very thread -- so the events are rewritten to
    this pid and this thread's lane.  Timestamps are shared-epoch
    ``perf_counter`` values, so time containment puts them inside the
    enclosing request span without further bookkeeping.  ``trace_id``
    (when given) is stamped into each event's args alongside the
    originating ``worker_pid``.  Returns the number of events adopted.
    """
    if not _ENABLED:
        return 0
    pid = os.getpid()
    lane = _tid()
    adopted = 0
    with _LOCK:
        for event in worker_events:
            if event.get("ph") == "M":
                continue
            copied = dict(event)
            args = dict(copied.get("args") or {})
            args.setdefault("worker_pid", event.get("pid"))
            if trace_id is not None:
                args.setdefault("trace_id", trace_id)
            copied["args"] = args
            copied["pid"] = pid
            copied["tid"] = lane
            _EVENTS.append(copied)
            adopted += 1
    return adopted


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def export(path: str, *, process_name: str = "repro") -> int:
    """Write the buffered events as Chrome trace-event JSON.

    Returns the number of events written.  The document is the object
    form (``{"traceEvents": [...]}``) which both Perfetto and
    ``chrome://tracing`` load directly.
    """
    with _LOCK:
        buffered = list(_EVENTS)
    meta = [{
        "name": "process_name", "ph": "M", "pid": os.getpid(), "tid": 0,
        "args": {"name": process_name},
    }]
    buffered.sort(key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0)))
    document = {"traceEvents": meta + buffered, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return len(buffered)


def load(path: str) -> List[dict]:
    """Load a trace file back into a list of events (for the reporter)."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if isinstance(document, list):  # bare-array form is also legal
        return document
    return list(document["traceEvents"])


def validate_chrome_trace(document) -> int:
    """Check a parsed trace document is well-formed Chrome trace JSON;
    returns the number of duration events.  Raises ``ValueError``."""
    if isinstance(document, dict):
        if "traceEvents" not in document:
            raise ValueError("missing traceEvents")
        events_ = document["traceEvents"]
    else:
        events_ = document
    if not isinstance(events_, list):
        raise ValueError("traceEvents is not a list")
    durations = 0
    for i, event in enumerate(events_):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        ph = event.get("ph")
        if not isinstance(event.get("name"), str) or ph not in ("X", "M",
                                                                "B", "E",
                                                                "i", "C"):
            raise ValueError(f"event {i} malformed: {event!r}")
        if ph == "X":
            for field in ("ts", "dur", "pid", "tid"):
                if not isinstance(event.get(field), (int, float)):
                    raise ValueError(f"event {i} missing {field}")
            durations += 1
    return durations


__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceContext",
    "adopt",
    "adopt_into_current",
    "context",
    "current_context",
    "current_lane",
    "disable",
    "emit",
    "enable",
    "enabled",
    "events",
    "export",
    "load",
    "new_lane",
    "new_trace_id",
    "reset",
    "session",
    "span",
    "validate_chrome_trace",
]
