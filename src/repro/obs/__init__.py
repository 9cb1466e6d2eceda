"""Telemetry subsystem: span tracing, metrics registry, event logging.

Five cooperating modules, importable with no telemetry cost until a
run opts in:

* :mod:`repro.obs.trace`   -- nested spans, Chrome trace-event export,
  cross-process re-parenting for batch workers.
* :mod:`repro.obs.metrics` -- the metric registry (counters declared by
  their owning modules, histograms, derived counters) and the
  Prometheus / JSONL exporters.
* :mod:`repro.obs.collect` -- ``timed_op``, the one timing hook of
  every domain operator and closure call, and the scoped
  :class:`StatsCollector` it feeds: operator tables (with self-time
  attribution), closure records, histograms and counters; the engine
  behind the ``repro.core.stats`` shim.  Operator and closure spans
  are derived from the same hook.
* :mod:`repro.obs.events`  -- structured diagnostics (stderr + JSONL
  sinks) replacing ad-hoc prints and warnings.
* :mod:`repro.obs.report`  -- run ids, the :class:`RunContext` artifact
  wiring, and the ``python -m repro report`` renderer.
"""

from .._lazy import lazy_exports
from . import collect, events, metrics, trace  # noqa: F401

__getattr__ = lazy_exports(__name__, {"report": ".report"})

__all__ = ["collect", "events", "metrics", "report", "trace"]
