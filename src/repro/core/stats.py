"""Compatibility shim over :mod:`repro.obs` -- the telemetry subsystem.

This module used to hold all instrumentation (operator timers, closure
records, counters with a hand-maintained ``counter_summary()`` key
list).  That machinery now lives in :mod:`repro.obs.collect` (scoped
collection, with correct self-time attribution for nested operator
timers) and :mod:`repro.obs.metrics` (the registry subsystems declare
their counters in, plus the Prometheus/JSONL exporters); spans and
trace export live in :mod:`repro.obs.trace`.

Every public name is re-exported so existing imports keep working:

>>> from repro.core import stats
>>> with stats.collecting() as collector:
...     with stats.timed_op("assign"):
...         pass
>>> collector.counter_summary()  # enumerated from the registry
"""

from __future__ import annotations

from repro.obs.collect import (  # noqa: F401
    ClosureRecord,
    OpCounter,
    StatsCollector,
    active_collector,
    bump,
    bump_max,
    capturing_closure_inputs,
    collecting,
    record_closure,
    record_closure_input,
    timed_op,
)
from repro.obs.metrics import (  # noqa: F401
    global_counters as _global_counters,
    register_counter_source,
)


def sparsity_ratio(counters) -> "float | None":
    """Peak sparsity ratio from a run's counter summary, or ``None``.

    Derived from the ``dbm_finite_cells`` / ``dbm_half_size`` high-water
    gauges the octagon records at closure boundaries: the
    fraction of the half-matrix that stayed trivial at the densest
    moment of the run.  ``None`` when the run recorded no closures
    (e.g. a non-DBM domain).
    """
    half = counters.get("dbm_half_size", 0)
    if not half:
        return None
    finite = counters.get("dbm_finite_cells", 0)
    return max(0.0, 1.0 - finite / half)


__all__ = [
    "ClosureRecord",
    "OpCounter",
    "StatsCollector",
    "active_collector",
    "bump",
    "bump_max",
    "capturing_closure_inputs",
    "collecting",
    "record_closure",
    "record_closure_input",
    "register_counter_source",
    "sparsity_ratio",
    "timed_op",
]
