"""Tests for the analysis server: protocol, tiers, concurrency, parity.

The load-bearing claims, each pinned here:

* the per-procedure decomposition is *exact* -- the server's merged
  verdicts and exit bounds are identical to a one-shot analysis of the
  same source, across the whole 17-benchmark suite;
* the tier stack works -- a repeated submission is served from the
  memory LRU with zero recompiled plans and zero fixpoint re-runs, an
  edited submission recomputes exactly the edited procedure, and a
  fresh server instance falls through to the disk cache;
* concurrent clients get the same answers as serial one-shot analysis.
"""

import socket
import threading

import pytest

from repro.frontend.fingerprint import procedure_digest, procedure_source
from repro.frontend.parser import parse_program
from repro.serve import (
    AnalysisServer, ProtocolError, ServeClient, ServeError, protocol,
)
from repro.serve.incremental import IncrementalAnalyzer, normalize_options
from repro.service.cache import ResultCache
from repro.service.job import AnalysisJob, execute_job
from repro.workloads.suite import load_suite

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

#: The same program with only ``g`` edited (bound 9 -> 12).
TWO_PROCS_EDITED = TWO_PROCS.replace("9", "12")


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def _pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        a, b = self._pair()
        try:
            protocol.send_message(a, {"cmd": "ping", "n": 42})
            assert protocol.recv_message(b) == {"cmd": "ping", "n": 42}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert protocol.recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")  # claims 16, sends 7
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_oversized_length_rejected_before_alloc(self):
        a, b = self._pair()
        try:
            a.sendall((protocol.MAX_MESSAGE + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="exceeds"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_body_rejected(self):
        a, b = self._pair()
        try:
            body = b"[1,2,3]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError, match="expected object"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# per-procedure fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_canonical_source_reparses_identically(self):
        proc = parse_program(TWO_PROCS).procedures[0]
        again = parse_program(procedure_source(proc)).procedures[0]
        assert procedure_source(again) == procedure_source(proc)

    def test_digest_ignores_formatting_and_siblings(self):
        reformatted = TWO_PROCS.replace("\n  ", "\n      ")
        reordered = parse_program(TWO_PROCS_EDITED)  # g edited, f intact
        f0 = parse_program(TWO_PROCS).procedures[0]
        f1 = parse_program(reformatted).procedures[0]
        f2 = reordered.procedures[0]
        assert procedure_digest(f0) == procedure_digest(f1)
        assert procedure_digest(f0) == procedure_digest(f2)

    def test_digest_tracks_statement_changes(self):
        g0 = parse_program(TWO_PROCS).procedures[1]
        g1 = parse_program(TWO_PROCS_EDITED).procedures[1]
        assert procedure_digest(g0) != procedure_digest(g1)

    def test_for_procedure_job_uses_canonical_source(self):
        proc = parse_program(TWO_PROCS).procedures[0]
        job = AnalysisJob.for_procedure(proc)
        assert job.source == procedure_source(proc)
        assert job.label == "f"


# ----------------------------------------------------------------------
# the incremental engine
# ----------------------------------------------------------------------
class TestIncremental:
    def test_unknown_option_rejected(self):
        inc = IncrementalAnalyzer()
        with pytest.raises(ValueError, match="unknown analyzer option"):
            inc.analyze(TWO_PROCS, options={"wideningdelay": 3})
        assert normalize_options({"widening_thresholds": [1, 2]}) \
            == {"widening_thresholds": (1.0, 2.0)}

    def test_cold_warm_edited_tiers(self):
        inc = IncrementalAnalyzer()
        cold, info = inc.analyze(TWO_PROCS)
        assert info["tiers"] == {"memory": 0, "disk": 0, "computed": 2}
        assert cold.counters["fixpoint_runs"] == 2
        assert cold.counters["plans_compiled"] > 0

        warm, info = inc.analyze(TWO_PROCS)
        assert info["tiers"] == {"memory": 2, "disk": 0, "computed": 0}
        # The acceptance bar: a warm request recompiles zero plans and
        # re-runs zero fixpoints.
        assert warm.counters["fixpoint_runs"] == 0
        assert warm.counters["plans_compiled"] == 0
        assert warm.verdicts() == cold.verdicts()
        assert warm.procedures == cold.procedures
        assert warm.cached and warm.seconds == 0.0

        edited, info = inc.analyze(TWO_PROCS_EDITED)
        assert info["tiers"] == {"memory": 1, "disk": 0, "computed": 1}
        assert info["procedures"] == [["f", "memory"], ["g", "computed"]]
        assert edited.counters["fixpoint_runs"] == 1

    def test_merged_matches_one_shot(self):
        inc = IncrementalAnalyzer()
        direct = execute_job(AnalysisJob(source=TWO_PROCS, label="direct"))
        for _ in range(2):  # both the computed and the cached pass
            served, _ = inc.analyze(TWO_PROCS, label="direct")
            assert served.key == AnalysisJob(source=TWO_PROCS,
                                             label="direct").key()
            assert served.verdicts() == direct.verdicts()
            assert served.procedures == direct.procedures
            assert served.outcome == direct.outcome
            assert served.rungs == direct.rungs

    def test_disk_tier_survives_process_restart(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = IncrementalAnalyzer(cache)
        cold, _ = first.analyze(TWO_PROCS)
        # A new engine with an empty LRU models a restarted server.
        second = IncrementalAnalyzer(ResultCache(str(tmp_path / "cache")))
        warm, info = second.analyze(TWO_PROCS)
        assert info["tiers"] == {"memory": 0, "disk": 2, "computed": 0}
        assert warm.verdicts() == cold.verdicts()
        assert warm.procedures == cold.procedures
        # Disk hits are promoted: the next pass is memory-tier.
        _, info = second.analyze(TWO_PROCS)
        assert info["tiers"] == {"memory": 2, "disk": 0, "computed": 0}

    def test_option_change_invalidates(self):
        inc = IncrementalAnalyzer()
        inc.analyze(TWO_PROCS)
        _, info = inc.analyze(TWO_PROCS, options={"domain": "interval"})
        assert info["tiers"]["computed"] == 2

    def test_suite_parity_with_one_shot(self):
        """Whole 17-benchmark suite: served results bit-identical to
        one-shot analysis, cold and warm."""
        inc = IncrementalAnalyzer()
        for bench in load_suite():
            job = bench.job(scale="small")
            direct = execute_job(job)
            for _ in range(2):
                served, _ = inc.analyze(job.source, label=bench.name)
                assert served.verdicts() == direct.verdicts(), bench.name
                assert served.procedures == direct.procedures, bench.name
                assert served.outcome == direct.outcome, bench.name


# ----------------------------------------------------------------------
# the daemon end to end
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    srv = AnalysisServer(str(tmp_path / "serve.sock"),
                         cache=ResultCache(str(tmp_path / "cache")),
                         workers=4)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestServer:
    def test_analyze_twice_hits_memory_tier(self, server):
        with ServeClient(server.socket_path) as client:
            first = client.analyze(TWO_PROCS, label="t")
            second = client.analyze(TWO_PROCS, label="t")
        assert first["tiers"]["computed"] == 2
        assert second["tiers"] == {"memory": 2, "disk": 0, "computed": 0}
        assert second["result"]["checks"] == first["result"]["checks"]
        assert second["result"]["counters"]["plans_compiled"] == 0
        assert second["result"]["counters"]["fixpoint_runs"] == 0
        assert second["request_seconds"] < 1.0

    def test_status_reports_resolved_config(self, server):
        from repro.core import kernels

        with ServeClient(server.socket_path) as client:
            status = client.status()
        # The same resolved configuration `python -m repro suite` prints
        # (pinned against drift in tests/test_cli.py).
        assert status["kernel_backend"] == kernels.resolve(None)
        assert status["cache_dir"] == str(server.cache.root)
        assert status["address"].endswith("serve.sock")
        assert status["workers"] == 4

    def test_status_reports_memory_lru_occupancy(self, server):
        with ServeClient(server.socket_path) as client:
            empty = client.status()
            assert empty["lru_entries"] == 0
            assert empty["lru_bytes"] == 0
            client.analyze(TWO_PROCS, label="t")
            warm = client.status()
        # one cached entry per analysed procedure, weighed by result size
        assert warm["lru_entries"] == 2
        assert warm["lru_bytes"] > 0

    def test_stats_and_metrics_surface_tiers(self, server):
        from repro.obs.metrics import validate_prometheus_text

        with ServeClient(server.socket_path) as client:
            cold = client.analyze(TWO_PROCS)
            client.analyze(TWO_PROCS)
            stats = client.stats()
            prom = client.metrics()
        counters = stats["counters"]
        assert counters["serve_procs_computed"] == 2
        assert counters["serve_procs_memory"] == 2
        assert counters["serve_requests_analyze"] == 2
        # Analysis counters sum per-request work: the warm pass adds 0.
        closed_form = cold["result"]["counters"]["assign_closed_form"]
        assert closed_form > 0
        assert counters["assign_closed_form"] == closed_form
        assert any(key.startswith("serve_request_seconds|analyze")
                   for key in stats["latency"])
        assert validate_prometheus_text(prom) > 0
        assert "repro_serve_procs_memory_total 2" in prom
        assert f"repro_assign_closed_form_total {closed_form}" in prom

    def test_parse_error_is_reported_and_survivable(self, server):
        with ServeClient(server.socket_path) as client:
            with pytest.raises(ServeError, match="line"):
                client.analyze("proc broken {")
            assert client.ping()["pong"]  # the daemon survived
            with pytest.raises(ServeError, match="unknown command"):
                client.request({"cmd": "explode"})

    def test_unknown_option_round_trips_as_error(self, server):
        with ServeClient(server.socket_path) as client:
            with pytest.raises(ServeError, match="unknown analyzer option"):
                client.analyze(TWO_PROCS, options={"typo": 1})

    def test_shutdown_command_stops_and_unlinks(self, server):
        import os

        with ServeClient(server.socket_path) as client:
            client.shutdown()
        server._stopping.wait(timeout=10)
        for _ in range(100):
            if not os.path.exists(server.socket_path):
                break
            threading.Event().wait(0.05)
        assert not os.path.exists(server.socket_path)

    def test_tcp_mode(self, tmp_path):
        srv = AnalysisServer(port=0, use_cache=False)
        srv.start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient(port=srv.port) as client:
                response = client.analyze(TWO_PROCS)
            assert response["tiers"]["computed"] == 2
        finally:
            srv.stop()
            thread.join(timeout=10)

    def test_concurrent_clients_match_serial(self, server):
        """N threads submitting overlapping edited programs all get the
        serial one-shot answers, deterministically."""
        variants = [TWO_PROCS, TWO_PROCS_EDITED,
                    TWO_PROCS.replace("x + 1", "x + 2").replace(
                        "y <= 5", "y <= 6")]
        serial = {src: execute_job(AnalysisJob(source=src))
                  for src in variants}
        failures = []

        def worker(tid):
            try:
                with ServeClient(server.socket_path) as client:
                    for round_ in range(3):
                        src = variants[(tid + round_) % len(variants)]
                        response = client.analyze(src)
                        expect = serial[src]
                        got = response["result"]
                        assert got["checks"] == [
                            [c.procedure, c.cond_text, c.verified]
                            for c in expect.checks]
                        assert [p["name"] for p in got["procedures"]] \
                            == [p.name for p in expect.procedures]
                        assert [p["box"] for p in got["procedures"]] \
                            == [p.box for p in expect.procedures]
                        assert got["outcome"] == expect.outcome
            except Exception as exc:  # noqa: BLE001 -- collected below
                failures.append(f"thread {tid}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures
        # 6 threads x 3 rounds x 2 procedures, but only 4 distinct
        # procedure bodies exist; concurrent first-computations of the
        # same key race benignly, so allow a little slack -- the point
        # is that the vast majority of lookups were cache tiers.
        counts = server.analyzer.tier_counts
        assert sum(counts.values()) == 6 * 3 * 2
        assert 4 <= counts["computed"] <= 12
        assert counts["memory"] >= 24
