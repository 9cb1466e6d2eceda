"""Compatibility shim over :mod:`repro.obs` -- the telemetry subsystem.

The domains time every operator and closure call through
:func:`timed_op`, the one timing hook (:mod:`repro.obs.collect`: scoped
collection, self-time tables, closure records, histograms and, with
tracing on, one trace event per call).  Counters are declared in the
:mod:`repro.obs.metrics` registry; phase spans and trace export live in
:mod:`repro.obs.trace`.

Every public name is re-exported so existing imports keep working:

>>> from repro.core import stats
>>> with stats.collecting() as collector:
...     with stats.timed_op("assign"):
...         pass
...     with stats.timed_op("closure", n=3, kind="dense", components=1):
...         pass
>>> collector.closure_stats()["closures"]
1
"""

from __future__ import annotations

from repro.obs.collect import (  # noqa: F401
    ClosureRecord,
    OpCounter,
    StatsCollector,
    active_collector,
    bump,
    bump_max_many,
    capture_closure_input,
    collecting,
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
    "bump_max_many",
    "capture_closure_input",
    "collecting",
    "register_counter_source",
    "sparsity_ratio",
    "timed_op",
]
