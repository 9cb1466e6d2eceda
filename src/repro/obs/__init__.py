"""Telemetry subsystem: span tracing, metrics registry, event logging.

Four cooperating modules, importable with no telemetry cost until a
run opts in:

* :mod:`repro.obs.trace`   -- nested spans, Chrome trace-event export,
  cross-process re-parenting for batch workers.
* :mod:`repro.obs.metrics` -- the metric registry (counters declared by
  their owning modules, histograms, derived counters) and the
  Prometheus / JSONL exporters.
* :mod:`repro.obs.collect` -- scoped :class:`StatsCollector` capture of
  operator timings (with self-time attribution), closure records and
  counters; the engine behind the ``repro.core.stats`` shim.
* :mod:`repro.obs.events`  -- structured diagnostics (stderr + JSONL
  sinks) replacing ad-hoc prints and warnings.
* :mod:`repro.obs.report`  -- run ids, the :class:`RunContext` artifact
  wiring, and the ``python -m repro report`` renderer.
"""

from .._lazy import lazy_exports
from . import collect, events, metrics, trace  # noqa: F401

__getattr__ = lazy_exports(__name__, {"report": ".report"})

__all__ = ["collect", "events", "metrics", "report", "trace"]
