"""Pool-wide distributed traces and the HTTP observability facade.

The observability-plane PR's contract, end to end:

* a cold pooled ``analyze`` exports a Chrome trace in which the worker
  *process's* spans (fixpoint, kernel work) have been re-parented under
  the daemon's ``serve_request`` span -- same pid, same handler-thread
  lane, time-contained, stamped with the request's trace id and the
  originating ``worker_pid``;
* a ``serve_worker_kill`` fault leaves a ``serve_job_retry`` marker on
  the same trace, and the respawned attempt's spans land under the same
  request;
* ``GET /metrics`` is valid Prometheus text, ``/healthz`` flips to 503
  when the circuit breaker opens, ``/statusz`` and ``/requestz`` carry
  the worker table, RED rollups and per-request trace ids;
* ``python -m repro top`` renders a frame from ``/statusz``.
"""

import io
import json
import os
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import trace
from repro.obs.console import fetch_status, render_status, run_top
from repro.obs.metrics import validate_prometheus_text
from repro.serve import AnalysisServer, ServeClient
from repro.testing import faults

TWO_PROCS = """\
proc f {
  x = [0, 4];
  y = x + 1;
  assert(y <= 5);
}
proc g {
  i = 0;
  while (i < 9) { i = i + 1; }
  assert(i >= 9);
}
"""


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.clear()


@pytest.fixture
def traced_pool_server(tmp_path):
    """A pooled daemon with tracing armed in the daemon process."""
    trace.reset()
    trace.enable()
    srv = AnalysisServer(str(tmp_path / "serve.sock"), pool=2,
                         use_cache=False)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.stop()
        thread.join(timeout=30)
        trace.disable()
        trace.reset()
    assert not thread.is_alive()


def _spans(events, name):
    return [e for e in events if e.get("ph") == "X" and e.get("name") == name]


def _request_span(events, cmd="analyze"):
    matches = [e for e in _spans(events, "serve_request")
               if (e.get("args") or {}).get("cmd") == cmd]
    assert matches, "no serve_request span for %r" % cmd
    return matches[-1]


def _contained(inner, outer, slack_us=1.0):
    return (inner["pid"] == outer["pid"]
            and inner["tid"] == outer["tid"]
            and inner["ts"] >= outer["ts"] - slack_us
            and inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"] + slack_us)


class TestPoolTraceRoundTrip:
    def test_cold_pooled_request_nests_worker_spans(self, traced_pool_server,
                                                    tmp_path):
        with ServeClient(traced_pool_server.socket_path) as client:
            response = client.analyze(TWO_PROCS, label="traced")
            assert response["ok"]
            assert response["tiers"]["computed"] == 2

        out = tmp_path / "trace.json"
        trace.export(str(out))
        with open(out, encoding="utf-8") as fh:
            document = json.load(fh)
        assert trace.validate_chrome_trace(document) > 0

        events = document["traceEvents"]
        request = _request_span(events)
        trace_id = request["args"]["trace_id"]
        assert trace_id

        worker_spans = [e for e in events if e.get("ph") == "X"
                        and (e.get("args") or {}).get("worker_pid")
                        not in (None, os.getpid())]
        # The fixpoint ran in a pool worker process, yet its spans (and
        # the kernel work under them) sit inside the daemon-side
        # serve_request interval on the handler thread's lane.
        names = {e["name"] for e in worker_spans}
        assert "fixpoint" in names
        assert names & {"closure", "closure_inc", "recompute", "loop"}
        for span in worker_spans:
            assert _contained(span, request), span["name"]
            assert span["args"]["trace_id"] == trace_id

    def test_worker_kill_retry_stays_on_one_trace(self, traced_pool_server,
                                                  tmp_path):
        faults.inject("serve_worker_kill")
        with ServeClient(traced_pool_server.socket_path) as client:
            response = client.analyze(TWO_PROCS, label="victim")
            assert response["ok"]
            assert response["result"]["outcome"] == "ok"
            assert client.stats()["counters"]["worker_crashes"] >= 1

        out = tmp_path / "trace.json"
        trace.export(str(out))
        events = trace.load(str(out))
        request = _request_span(events)
        trace_id = request["args"]["trace_id"]

        retries = [e for e in _spans(events, "serve_job_retry")
                   if (e.get("args") or {}).get("trace_id") == trace_id]
        assert retries, "retry marker missing from the request's trace"
        assert retries[0]["args"]["cause"] == "worker-died"
        assert retries[0]["tid"] == request["tid"]

        # The respawned attempt's fixpoint is adopted under the SAME
        # request: one trace tells the whole kill-and-retry story.
        fixpoints = [e for e in _spans(events, "fixpoint")
                     if (e.get("args") or {}).get("trace_id") == trace_id]
        assert fixpoints
        assert all(_contained(f, request) for f in fixpoints)


# ----------------------------------------------------------------------
# HTTP facade
# ----------------------------------------------------------------------
def _get(port, path):
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture
def http_server(tmp_path):
    srv = AnalysisServer(str(tmp_path / "serve.sock"), pool=0,
                         use_cache=False, http_port=0, slow_request_ms=None)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestHTTPFacade:
    def test_metrics_is_valid_prometheus_text(self, http_server):
        with ServeClient(http_server.socket_path) as client:
            client.analyze(TWO_PROCS)
        status, body = _get(http_server.http_port, "/metrics")
        assert status == 200
        assert validate_prometheus_text(body) > 0
        assert "repro_serve_requests_total" in body
        assert "repro_serve_request_seconds" in body
        closed_form = re.search(
            r"^repro_assign_closed_form_total (\d+)$", body, re.M)
        assert closed_form and int(closed_form.group(1)) >= 1

    def test_healthz_ok_and_statusz_shape(self, http_server):
        status, body = _get(http_server.http_port, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

        with ServeClient(http_server.socket_path) as client:
            client.analyze(TWO_PROCS, label="shape")
        status, body = _get(http_server.http_port, "/statusz")
        assert status == 200
        doc = json.loads(body)
        assert doc["requests"] >= 1
        assert doc["red"]["commands"]["analyze"]["count"] >= 1
        assert "counters" in doc and "lru_entries" in doc

    def test_requestz_carries_trace_ids(self, http_server):
        with ServeClient(http_server.socket_path) as client:
            client.analyze(TWO_PROCS, label="ringed")
        status, body = _get(http_server.http_port, "/requestz")
        assert status == 200
        recent = json.loads(body)["recent"]
        analyze = [r for r in recent if r["cmd"] == "analyze"]
        assert analyze
        assert analyze[-1]["label"] == "ringed"
        assert analyze[-1]["ok"] is True
        assert len(analyze[-1]["trace_id"]) == 16
        assert analyze[-1]["tiers"]["computed"] == 2

    def test_unknown_route_is_structured_404(self, http_server):
        status, body = _get(http_server.http_port, "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

    def test_healthz_reflects_open_breaker(self, tmp_path):
        srv = AnalysisServer(str(tmp_path / "serve.sock"), pool=1,
                             worker_restarts=1, use_cache=False, http_port=0)
        srv.start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            faults.inject("serve_worker_kill")
            with ServeClient(srv.socket_path) as client:
                # One crash trips the threshold-1 breaker; the retry
                # still answers (inline fallback)...
                response = client.analyze(TWO_PROCS)
                assert response["ok"]
            # ...and the facade now reports not-ready.
            status, body = _get(srv.http_port, "/healthz")
            assert status == 503
            doc = json.loads(body)
            assert doc["ok"] is False
            assert doc["breaker_open"] is True
        finally:
            srv.stop()
            thread.join(timeout=30)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# ops console
# ----------------------------------------------------------------------
class TestConsole:
    def test_render_status_from_live_daemon(self, http_server):
        with ServeClient(http_server.socket_path) as client:
            client.analyze(TWO_PROCS)
        doc = fetch_status(f"http://127.0.0.1:{http_server.http_port}")
        frame = render_status(doc)
        assert "repro serve" in frame
        assert "requests=" in frame
        assert "analyze" in frame  # RED table row

    def test_run_top_once(self, http_server):
        out = io.StringIO()
        code = run_top(f"http://127.0.0.1:{http_server.http_port}",
                       once=True, out=out)
        assert code == 0
        assert "repro serve" in out.getvalue()
        assert "\x1b[" not in out.getvalue()  # --once stays ANSI-free

    def test_run_top_unreachable_is_nonzero(self):
        out = io.StringIO()
        code = run_top("http://127.0.0.1:9", once=True, out=out)
        assert code == 1
        assert "cannot reach" in out.getvalue()
