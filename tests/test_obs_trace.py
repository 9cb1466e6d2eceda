"""Tests for the span tracer and Chrome trace-event export."""

import json

import pytest

from repro.analysis.analyzer import Analyzer
from repro.obs import trace
from repro.service.job import AnalysisJob
from repro.service.scheduler import run_batch

SOURCE = """\
proc main {
  x = 0;
  while (x < 8) { x = x + 1; }
  assert(x == 8);
}
"""


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        s = trace.span("anything", k=1)
        assert s is trace.NULL_SPAN
        with s as live:
            live.set(more=2)  # must not raise
        assert trace.events() == []

    def test_enabled_span_records_complete_event(self):
        trace.enable()
        with trace.span("work", kind="test") as s:
            s.set(extra=7)
        (event,) = trace.events()
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["args"] == {"kind": "test", "extra": 7}
        assert event["dur"] >= 0.0

    def test_span_name_attr_does_not_collide(self):
        """`name` is positional-only, so spans can carry a name attr."""
        trace.enable()
        with trace.span("procedure", name="main"):
            pass
        (event,) = trace.events()
        assert event["args"]["name"] == "main"

    def test_exception_annotates_and_propagates(self):
        trace.enable()
        with pytest.raises(KeyError):
            with trace.span("boom"):
                raise KeyError("x")
        (event,) = trace.events()
        assert event["args"]["error"] == "KeyError"

    def test_emit_uses_explicit_endpoints(self):
        trace.enable()
        trace.emit("closure", 1.0, 1.5, args={"n": 4})
        (event,) = trace.events()
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.5e6)

    def test_emit_disabled_is_silent(self):
        trace.emit("closure", 0.0, 1.0)
        assert trace.events() == []


class TestSession:
    def test_session_isolates_and_restores(self):
        trace.enable()
        trace.emit("before", 0.0, 1.0)
        with trace.session() as sess:
            trace.emit("inside", 0.0, 1.0)
        trace.emit("after", 0.0, 1.0)
        assert [e["name"] for e in sess.events] == ["inside"]
        assert [e["name"] for e in trace.events()] == ["before", "after"]

    def test_session_forces_enabled_then_restores(self):
        assert not trace.enabled()
        with trace.session() as sess:
            assert trace.enabled()
            trace.emit("only", 0.0, 1.0)
        assert not trace.enabled()
        assert len(sess.events) == 1


class TestAdoption:
    def test_adopt_rewrites_onto_lane(self):
        trace.enable()
        lane = trace.new_lane("job j1")
        worker = [
            {"name": "thread_name", "ph": "M", "pid": 999, "tid": 1,
             "args": {"name": "w"}},
            {"name": "fixpoint", "ph": "X", "ts": 1.0, "dur": 2.0,
             "pid": 999, "tid": 1, "args": {"nodes": 3}},
        ]
        adopted = trace.adopt(worker, lane)
        assert adopted == 1  # metadata dropped
        spans = [e for e in trace.events() if e.get("ph") == "X"]
        (event,) = spans
        assert event["tid"] == lane
        assert event["pid"] != 999
        assert event["args"]["worker_pid"] == 999
        names = [e["args"]["name"] for e in trace.events()
                 if e.get("ph") == "M"]
        assert "job j1" in names


class TestExport:
    def test_export_load_validate_roundtrip(self, tmp_path):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        path = tmp_path / "trace.json"
        written = trace.export(str(path))
        assert written == 2
        document = json.loads(path.read_text())
        assert trace.validate_chrome_trace(document) == 2
        loaded = trace.load(str(path))
        assert {"outer", "inner"} <= {e["name"] for e in loaded}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            trace.validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError):
            trace.validate_chrome_trace([{"name": "x", "ph": "X"}])  # no ts
        with pytest.raises(ValueError):
            trace.validate_chrome_trace([{"ph": "X", "ts": 0, "dur": 1,
                                          "pid": 1, "tid": 1}])  # no name


class TestAnalysisSpans:
    def test_analysis_emits_phase_spans(self):
        trace.enable()
        Analyzer().analyze(SOURCE)
        names = {e["name"] for e in trace.events()}
        for expected in ("parse", "procedure", "rung", "fixpoint",
                         "compile", "loop", "recompute"):
            assert expected in names, expected

    def test_closure_spans_from_kernels(self):
        trace.enable()
        Analyzer().analyze(SOURCE)
        closures = [e for e in trace.events()
                    if e["name"] in ("closure", "closure_inc")]
        assert closures
        assert all({"n", "kind", "components"} <= set(e["args"])
                   for e in closures)

    def test_execute_job_traces_operators_and_closures(self):
        """Spans derive from the one timing hook: every operator and
        closure call of a traced job is an ``X`` event."""
        from repro.service.job import execute_job

        result = execute_job(AnalysisJob(source=SOURCE,
                                         telemetry=("trace",)))
        spans = [e for e in result.trace_events if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        assert {"join", "assign", "closure"} <= names
        for name, calls in result.op_calls.items():
            assert sum(e["name"] == name for e in spans) == calls, name
        closures = [e for e in spans if e["name"] == "closure"]
        assert all(isinstance(e["args"]["n"], int) and e["args"]["kind"]
                   and "components" in e["args"] for e in closures)
        assert trace.events() == []  # the job's own session took them

    def test_disabled_analysis_records_nothing(self):
        Analyzer().analyze(SOURCE)
        assert trace.events() == []


class TestBatchReparenting:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_spans_nest_under_job_lanes(self, workers):
        trace.enable()
        jobs = [AnalysisJob(source=SOURCE, label="a"),
                AnalysisJob(source="x = 1; assert(x == 1);", label="b")]
        batch = run_batch(jobs, workers=workers)
        assert batch.all_ok
        events = trace.events()
        job_spans = [e for e in events
                     if e.get("ph") == "X" and e["name"] == "job"]
        assert len(job_spans) == 2
        lanes = {e["tid"] for e in job_spans}
        assert all(lane >= 1000 for lane in lanes)
        # Worker-side spans were re-parented onto the job lanes.
        nested = [e for e in events if e.get("ph") == "X"
                  and e["name"] == "fixpoint" and e["tid"] in lanes]
        assert len(nested) == 2
        assert all("worker_pid" in e["args"] for e in nested)
        # Every job lane got a readable label.
        labels = {e["args"]["name"] for e in events
                  if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert {"job a", "job b"} <= labels
        # The job span covers its nested spans on the same lane (the
        # parent stamps the job start just after submission, so allow a
        # small scheduling skew -- timestamps are microseconds).
        skew = 50_000.0
        for job in job_spans:
            inside = [e for e in events
                      if e.get("ph") == "X" and e["tid"] == job["tid"]
                      and e is not job]
            assert inside
            for e in inside:
                assert e["ts"] >= job["ts"] - skew
                assert e["ts"] + e["dur"] <= job["ts"] + job["dur"] + skew

    def test_batch_without_tracing_ships_no_events(self):
        jobs = [AnalysisJob(source="x = 1; assert(x == 1);", label="a")]
        batch = run_batch(jobs, workers=1)
        assert batch.results[0].trace_events == []
        assert trace.events() == []
