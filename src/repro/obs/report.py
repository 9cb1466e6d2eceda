"""Run identity, artifact wiring, and the ``repro report`` renderer.

Every CLI invocation that asks for telemetry gets a **run id** and a
:class:`RunContext` that turns flags into artifacts:

* ``--trace out.json``  -> span buffer enabled, exported as Chrome
  trace-event JSON on exit;
* ``--log-json run.jsonl`` -> the structured event log, ending with a
  ``run_summary`` event that snapshots operator timings, counters and
  histograms;
* ``--metrics out.prom`` -> Prometheus text exposition of the final
  counter/histogram snapshot.

``python -m repro report run.jsonl [--trace out.json]`` then renders
the per-operator split, counter table, and (when a trace is available)
the per-phase breakdown **from the artifacts alone** -- no re-analysis,
which is the property that makes reports shippable from a batch box.
"""

from __future__ import annotations

import os
import time
from typing import Collection, Dict, List, Optional, Sequence

from . import events, metrics, trace


def new_run_id(command: str = "run") -> str:
    """A human-sortable run id: command, wall-clock stamp, pid."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{command}-{stamp}-{os.getpid()}"


class RunContext:
    """Arms the requested telemetry for one CLI run and writes the
    artifacts on exit.  With no flags set it does (almost) nothing."""

    def __init__(self, command: str, *,
                 trace_path: Optional[str] = None,
                 log_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 verbose: int = 0, quiet: bool = False,
                 run_id: Optional[str] = None) -> None:
        self.command = command
        self.trace_path = trace_path
        self.log_path = log_path
        self.metrics_path = metrics_path
        self.run_id = run_id or new_run_id(command)
        self.verbose = verbose
        self.quiet = quiet
        self.summary: Dict[str, object] = {}
        self._start = 0.0
        self._metrics_prev = False

    @property
    def active(self) -> bool:
        """True when any telemetry artifact was requested."""
        return bool(self.trace_path or self.log_path or self.metrics_path)

    def __enter__(self) -> "RunContext":
        events.configure(
            stderr_level=events.verbosity_level(self.verbose, self.quiet),
            json_path=self.log_path, run_id=self.run_id)
        if self.trace_path:
            trace.reset()
            trace.enable()
        if self.log_path or self.metrics_path:
            self._metrics_prev = metrics.set_enabled(True)
        self._start = time.perf_counter()
        if self.active:
            events.info("run_start", command=self.command,
                        trace=self.trace_path, metrics=self.metrics_path)
        return self

    def finish(self, collector=None, *, counters: Optional[Dict] = None,
               histograms: Optional[Dict] = None, **extra) -> None:
        """Record the final measurement snapshot for the summary event.

        Accepts either a :class:`~repro.obs.collect.StatsCollector` or
        explicit pre-merged dicts (the batch path, where per-job results
        were already rolled up).
        """
        if collector is not None:
            self.summary.setdefault("op_seconds", dict(collector.op_seconds))
            self.summary.setdefault("op_self_seconds",
                                    dict(collector.op_self_seconds))
            self.summary.setdefault("op_calls", dict(collector.op_calls))
            self.summary.setdefault("counters", collector.counter_summary())
            self.summary.setdefault("histograms",
                                    collector.histograms_export())
        if counters is not None:
            self.summary["counters"] = dict(counters)
        if histograms is not None:
            self.summary["histograms"] = dict(histograms)
        self.summary.update(extra)

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._start
        try:
            if self.active and exc_type is None:
                self.summary.setdefault("command", self.command)
                self.summary["wall_seconds"] = wall
                if self.trace_path:
                    self.summary.setdefault("trace",
                                            os.path.abspath(self.trace_path))
                # Debug level: the snapshot is for the JSONL artifact
                # (where every event lands regardless of level), not
                # for scrolling past on stderr at -v.
                events.emit(events.DEBUG, "run_summary", **self.summary)
            if self.trace_path:
                written = trace.export(self.trace_path,
                                       process_name=f"repro {self.command}")
                trace.disable()
                events.info("trace_written", path=self.trace_path,
                            spans=written)
            if self.metrics_path:
                hist_dicts = self.summary.get("histograms") or {}
                histograms = metrics.merge_histogram_dicts([hist_dicts])
                text = metrics.prometheus_text(
                    self.summary.get("counters") or {}, histograms)
                with open(self.metrics_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                events.info("metrics_written", path=self.metrics_path)
        finally:
            if self.log_path or self.metrics_path:
                metrics.set_enabled(self._metrics_prev)
            events.close()


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row]
                                           for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.6f}"


def operator_rows(summary: Dict) -> List[List[object]]:
    op_seconds = summary.get("op_seconds") or {}
    op_self = summary.get("op_self_seconds") or {}
    op_calls = summary.get("op_calls") or {}
    total_self = sum(op_self.values()) or 1.0
    rows = []
    for name in sorted(op_seconds, key=lambda n: -op_self.get(n, 0.0)):
        self_s = op_self.get(name, op_seconds[name])
        rows.append([name, op_calls.get(name, 0), _fmt_s(op_seconds[name]),
                     _fmt_s(self_s), f"{100.0 * self_s / total_self:.1f}%"])
    return rows


def phase_rows(trace_events: Sequence[dict],
               exclude: Collection[str] = ()) -> List[List[object]]:
    """Aggregate span durations by name from Chrome trace events,
    skipping the names in ``exclude`` (the operator table's rows)."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for event in trace_events:
        if event.get("ph") != "X" or event["name"] in exclude:
            continue
        name = event["name"]
        totals[name] = totals.get(name, 0.0) + float(event.get("dur", 0.0))
        counts[name] = counts.get(name, 0) + 1
    return [[name, counts[name], f"{totals[name] / 1e3:.3f}"]
            for name in sorted(totals, key=lambda n: -totals[n])]


def histogram_rows(histograms: Dict[str, Dict]) -> List[List[object]]:
    rows = []
    for key in sorted(histograms):
        raw = histograms[key]
        total = int(raw.get("total", 0))
        mean = float(raw.get("sum", 0.0)) / total if total else 0.0
        rows.append([key.replace("|", " "), total, f"{mean:.6g}"])
    return rows


#: Worker-lifecycle and per-request events that reconstruct pool
#: history from a ``--log-json`` artifact of a serve run.
_SERVE_EVENTS = (
    "serve_pool_started", "serve_pool_stopped", "serve_worker_died",
    "serve_worker_killed", "serve_worker_respawned", "serve_breaker_open",
    "serve_breaker_closed", "serve_job_retry", "serve_slow_request",
)


def server_section(records: Sequence[Dict],
                   summary: Dict) -> List[str]:
    """Render the server portion of a report, if the artifacts carry
    one: serve counters, per-command latency percentiles, and the pool
    lifecycle history (deaths, kills, respawns, breaker transitions)
    reconstructed from the structured event log."""
    counters = summary.get("counters") or {}
    histograms = summary.get("histograms") or {}
    latency = {key: raw for key, raw in histograms.items()
               if str(raw.get("name")) == "serve_request_seconds"}
    lifecycle = [r for r in records if r.get("event") in _SERVE_EVENTS]
    if not (counters.get("serve_requests") or latency or lifecycle):
        return []
    lines: List[str] = ["Server:"]
    facts = [[key, counters[key]] for key in (
        "serve_requests", "serve_errors", "serve_connections",
        "serve_pool_jobs", "serve_pool_inline", "worker_restarts",
        "worker_crashes", "worker_hangs", "serve_breaker_opens")
        if counters.get(key)]
    if facts:
        lines.append(_table(["counter", "value"], facts))
    if latency:
        rows = []
        for key in sorted(latency):
            data = metrics.HistogramData.from_dict(latency[key])
            p50, p95 = data.quantile(0.5), data.quantile(0.95)
            mean = data.sum / data.total if data.total else 0.0
            rows.append([data.label_value or "", data.total,
                         f"{mean * 1e3:.3f}",
                         f"{(p50 or 0.0) * 1e3:.3f}",
                         f"{(p95 or 0.0) * 1e3:.3f}"])
        lines.append("")
        lines.append("Per-command request latency:")
        lines.append(_table(
            ["command", "count", "mean ms", "p50 ms", "p95 ms"], rows))
    if lifecycle:
        lines.append("")
        lines.append(f"Pool lifecycle ({len(lifecycle)} event(s)):")
        for record in lifecycle[:30]:
            fields = {k: v for k, v in record.items()
                      if k not in ("ts", "level", "event", "run")
                      and v is not None}
            parts = []
            for k, v in sorted(fields.items()):
                text = str(v)
                if len(text) > 60:  # e.g. slow-request counter deltas
                    text = text[:57] + "..."
                parts.append(f"{k}={text}")
            lines.append(f"  {record.get('event')} " + " ".join(parts))
        if len(lifecycle) > 30:
            lines.append(f"  ... {len(lifecycle) - 30} more")
    return lines


def render_report(log_path: str,
                  trace_path: Optional[str] = None) -> str:
    """Render a human-readable run report from exported artifacts."""
    records = events.read_jsonl(log_path)
    summaries = [r for r in records if r.get("event") == "run_summary"]
    if not summaries:
        raise ValueError(
            f"{log_path}: no run_summary event -- was the run aborted, or "
            f"is this not a --log-json artifact?")
    summary = summaries[-1]
    out: List[str] = []
    out.append(f"{'run:':<14}{summary.get('run')}")
    out.append(f"{'command:':<14}{summary.get('command')}")
    if summary.get("wall_seconds") is not None:
        out.append(f"{'wall:':<14}{float(summary['wall_seconds']):.3f} s")
    for key in ("jobs", "ok", "degraded", "failed", "cache_hits",
                "cache_misses"):
        if summary.get(key) is not None:
            out.append(f"{key + ':':<14}{summary[key]}")

    rows = operator_rows(summary)
    if rows:
        out.append("")
        out.append("Per-operator time (self time excludes nested operators "
                   "and closures):")
        out.append(_table(
            ["operator", "calls", "total s", "self s", "self %"], rows))

    trace_file = trace_path or summary.get("trace")
    if trace_file and os.path.exists(str(trace_file)):
        spans = trace.load(str(trace_file))
        rows = phase_rows(spans, exclude=summary.get("op_seconds") or ())
        if rows:
            out.append("")
            out.append(f"Per-phase spans (from {trace_file}):")
            out.append(_table(["phase", "spans", "total ms"], rows))

    counters = summary.get("counters") or {}
    nonzero = {k: v for k, v in counters.items() if v}
    if nonzero:
        out.append("")
        out.append("Counters (zero-valued omitted):")
        out.append(_table(["counter", "value"],
                          [[k, nonzero[k]] for k in sorted(nonzero)]))

    histograms = summary.get("histograms") or {}
    rows = histogram_rows(histograms)
    if rows:
        out.append("")
        out.append("Distributions:")
        out.append(_table(["histogram", "count", "mean"], rows))

    server_lines = server_section(records, summary)
    if server_lines:
        out.append("")
        out.extend(server_lines)

    warn_events = [r for r in records
                   if r.get("level") in ("warning", "error")
                   and r.get("event") not in ("run_summary",) + _SERVE_EVENTS]
    if warn_events:
        out.append("")
        out.append(f"Diagnostics ({len(warn_events)} warning/error events):")
        for r in warn_events[:20]:
            fields = {k: v for k, v in r.items()
                      if k not in ("ts", "level", "event", "run")}
            out.append(f"  [{r.get('level')}] {r.get('event')} "
                       + " ".join(f"{k}={v}" for k, v in sorted(
                           fields.items())))
    return "\n".join(out) + "\n"


__all__ = [
    "RunContext",
    "histogram_rows",
    "new_run_id",
    "operator_rows",
    "phase_rows",
    "render_report",
    "server_section",
]
