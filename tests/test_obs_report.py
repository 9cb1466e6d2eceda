"""Tests for run contexts and the artifact-driven run report."""

import json

import pytest

from repro.analysis.analyzer import Analyzer
from repro.obs import events, metrics, trace
from repro.obs.report import (
    RunContext,
    new_run_id,
    operator_rows,
    phase_rows,
    render_report,
)

SOURCE = """\
proc main {
  x = 0;
  while (x < 6) { x = x + 1; }
  assert(x == 6);
}
"""


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    trace.disable()
    trace.reset()
    events.configure(stderr_level=events.WARNING)
    events.close()


def _run_with_artifacts(tmp_path, **kwargs):
    paths = {
        "trace_path": str(tmp_path / "run.trace.json"),
        "log_path": str(tmp_path / "run.jsonl"),
        "metrics_path": str(tmp_path / "run.prom"),
    }
    paths.update(kwargs)
    with RunContext("analyze", quiet=True, **paths) as ctx:
        result = Analyzer().analyze(SOURCE, collect=True)
        ctx.finish(result.octagon_stats)
    return ctx, paths


class TestRunContext:
    def test_run_id_embeds_command(self):
        assert new_run_id("batch").startswith("batch-")

    def test_inactive_without_flags(self):
        ctx = RunContext("analyze")
        assert not ctx.active
        with ctx:
            pass  # no artifacts, no crash
        assert not trace.enabled()

    def test_writes_all_artifacts(self, tmp_path):
        ctx, paths = _run_with_artifacts(tmp_path)
        document = json.loads(open(paths["trace_path"]).read())
        assert trace.validate_chrome_trace(document) > 0
        text = open(paths["metrics_path"]).read()
        assert metrics.validate_prometheus_text(text) > 0
        records = events.read_jsonl(paths["log_path"])
        names = [r["event"] for r in records]
        assert "run_start" in names
        assert "run_summary" in names
        summary = [r for r in records if r["event"] == "run_summary"][-1]
        assert summary["run"] == ctx.run_id
        assert summary["op_seconds"]
        assert summary["counters"]["cow_clones"] > 0
        # Histograms were collected: metrics flag armed by the context.
        assert summary["histograms"]

    def test_restores_global_state(self, tmp_path):
        assert not trace.enabled()
        assert not metrics.enabled()
        _run_with_artifacts(tmp_path)
        assert not trace.enabled()
        assert not metrics.enabled()


class TestRows:
    def test_operator_rows_sorted_by_self_time(self):
        rows = operator_rows({
            "op_seconds": {"a": 0.5, "b": 2.0},
            "op_self_seconds": {"a": 0.5, "b": 1.0},
            "op_calls": {"a": 3, "b": 1},
        })
        assert [r[0] for r in rows] == ["b", "a"]
        # self% column sums to ~100.
        assert sum(float(r[4].rstrip("%")) for r in rows) == pytest.approx(
            100.0, abs=0.2)

    def test_phase_rows_aggregate_durations(self):
        events = [
            {"ph": "X", "name": "closure", "dur": 1000.0},
            {"ph": "X", "name": "closure", "dur": 500.0},
            {"ph": "M", "name": "thread_name"},
            {"ph": "X", "name": "parse", "dur": 100.0},
        ]
        rows = phase_rows(events)
        assert rows[0][:2] == ["closure", 2]
        assert rows[0][2] == "1.500"
        # Operator-table rows are left out of the phase table.
        assert [r[0] for r in phase_rows(events, exclude={"closure": 1.5})] == [
            "parse"]


class TestRenderReport:
    def test_report_from_artifacts_alone(self, tmp_path):
        _, paths = _run_with_artifacts(tmp_path)
        text = render_report(paths["log_path"])
        assert "Per-operator time" in text
        assert "assign" in text
        assert "Per-phase spans" in text
        assert "fixpoint" in text
        assert "Counters (zero-valued omitted):" in text
        assert "cow_clones" in text
        assert "Distributions:" in text

    def test_trace_override(self, tmp_path):
        _, paths = _run_with_artifacts(tmp_path)
        moved = tmp_path / "elsewhere.json"
        moved.write_bytes(open(paths["trace_path"], "rb").read())
        text = render_report(paths["log_path"], trace_path=str(moved))
        assert "elsewhere.json" in text

    def test_log_without_summary_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"event": "run_start"}\n')
        with pytest.raises(ValueError, match="run_summary"):
            render_report(str(path))

    def test_diagnostics_section_lists_warnings(self, tmp_path):
        log = tmp_path / "run.jsonl"
        with RunContext("batch", log_path=str(log), quiet=True) as ctx:
            events.warning("result_cache_evicted", path="/x")
            ctx.finish(counters={}, histograms={})
        text = render_report(str(log))
        assert "Diagnostics (1 warning/error events):" in text
        assert "result_cache_evicted" in text

    def test_operator_split_survives_without_trace(self, tmp_path):
        """The per-operator table needs only the JSONL artifact."""
        log = tmp_path / "run.jsonl"
        with RunContext("analyze", log_path=str(log), quiet=True) as ctx:
            result = Analyzer().analyze(SOURCE, collect=True)
            ctx.finish(result.octagon_stats)
        text = render_report(str(log))
        assert "Per-operator time" in text
        assert "Per-phase spans" not in text
