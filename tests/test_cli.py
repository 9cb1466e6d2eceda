"""Tests for the package CLI (python -m repro)."""

import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


class TestAnalyze:
    def test_analyze_file(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("x = [0, 4]; y = x + 1; assert(y <= 5);")
        proc = run_cli("analyze", str(src))
        assert proc.returncode == 0, proc.stderr
        assert "VERIFIED" in proc.stdout
        assert "y in [1, 5]" in proc.stdout

    def test_analyze_failure_exit_code(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("x = [0, 4]; assert(x <= 3);")
        proc = run_cli("analyze", str(src))
        assert proc.returncode == 1
        assert "FAILED TO PROVE" in proc.stdout

    @pytest.mark.parametrize("domain", ["interval", "zone", "pentagon"])
    def test_other_domains(self, tmp_path, domain):
        src = tmp_path / "p.mini"
        src.write_text("x = 1; assert(x == 1);")
        proc = run_cli("analyze", str(src), "--domain", domain)
        assert proc.returncode == 0, proc.stderr

    def test_analyze_multiple_files(self, tmp_path):
        ok = tmp_path / "ok.mini"
        ok.write_text("x = [0, 4]; y = x + 1; assert(y <= 5);")
        ok2 = tmp_path / "ok2.mini"
        ok2.write_text("z = 3; assert(z == 3);")
        proc = run_cli("analyze", str(ok), str(ok2), "--jobs", "1")
        assert proc.returncode == 0, proc.stderr
        assert f"== {ok} ==" in proc.stdout
        assert f"== {ok2} ==" in proc.stdout
        assert "2/2 assertions verified over 2 files" in proc.stdout

    def test_analyze_multiple_files_exit_code(self, tmp_path):
        ok = tmp_path / "ok.mini"
        ok.write_text("x = 1; assert(x == 1);")
        bad = tmp_path / "bad.mini"
        bad.write_text("x = [0, 4]; assert(x <= 3);")
        proc = run_cli("analyze", str(ok), str(bad), "--jobs", "1")
        assert proc.returncode == 1
        assert "FAILED TO PROVE" in proc.stdout


class TestPrecondition:
    def test_precondition(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("assume(x >= 2); y = x;")
        proc = run_cli("precondition", str(src))
        assert proc.returncode == 0, proc.stderr
        assert "-x <= -2" in proc.stdout

    def test_unreachable_exit(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("assume(false);")
        proc = run_cli("precondition", str(src))
        assert "false (the exit is unreachable)" in proc.stdout


class TestBatch:
    def _sources(self, tmp_path):
        a = tmp_path / "a.mini"
        a.write_text("x = [0, 4]; y = x + 1; assert(y <= 5);")
        b = tmp_path / "b.mini"
        b.write_text("z = 3; assert(z == 3);")
        return a, b

    def _env(self, tmp_path):
        import os

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        return env

    def test_batch_files_and_cache_warmup(self, tmp_path):
        a, b = self._sources(tmp_path)
        env = self._env(tmp_path)
        cold = run_cli("batch", str(a), str(b), "--jobs", "2", env=env)
        assert cold.returncode == 0, cold.stderr
        assert "2 ok, 0 degraded, 0 timeout, 0 error" in cold.stdout
        assert "cache: 0 hits, 2 misses" in cold.stdout
        warm = run_cli("batch", str(a), str(b), "--jobs", "2", env=env)
        assert warm.returncode == 0, warm.stderr
        assert "cache: 2 hits, 0 misses" in warm.stdout
        assert warm.stdout.count("(cached)") == 2

    def test_batch_no_cache(self, tmp_path):
        a, b = self._sources(tmp_path)
        proc = run_cli("batch", str(a), str(b), "--jobs", "1", "--no-cache",
                       env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "cache:" not in proc.stdout

    def test_batch_json_report(self, tmp_path):
        import json

        a, b = self._sources(tmp_path)
        out = tmp_path / "report.json"
        proc = run_cli("batch", str(a), str(b), "--jobs", "1", "--no-cache",
                       "--json", str(out), env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr
        from repro.core.serialize import JOB_RESULT_SCHEMA

        report = json.loads(out.read_text())
        assert len(report["jobs"]) == 2
        assert all(j["schema"] == JOB_RESULT_SCHEMA and j["outcome"] == "ok"
                   for j in report["jobs"])
        assert all(j["compile_transfer"] is True for j in report["jobs"])
        assert report["jobs"][0]["label"] == str(a)
        # x := [0, 4], y := x + 1 and z := 3 are closed-form assignments.
        assert all(j["counters"]["assign_closed_form"] >= 1
                   for j in report["jobs"])

    def test_batch_timeout_flag(self, tmp_path):
        a, b = self._sources(tmp_path)
        proc = run_cli("batch", str(a), str(b), "--jobs", "2", "--no-cache",
                       "--timeout", "120", env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_batch_requires_input(self, tmp_path):
        proc = run_cli("batch", env=self._env(tmp_path))
        assert proc.returncode == 2
        assert "no input files" in proc.stderr

    def test_batch_suite_conflicts_with_files(self, tmp_path):
        a, _ = self._sources(tmp_path)
        proc = run_cli("batch", str(a), "--suite", env=self._env(tmp_path))
        assert proc.returncode == 2


class TestTelemetry:
    """--trace / --log-json / --metrics flags and the report command."""

    def _env(self, tmp_path):
        import os

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        return env

    def _artifacts(self, tmp_path):
        return (tmp_path / "run.trace.json", tmp_path / "run.jsonl",
                tmp_path / "run.prom")

    def test_analyze_writes_artifacts_and_report_renders(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("x = [0, 4]; y = x + 1; assert(y <= 5);")
        trace_p, log_p, prom_p = self._artifacts(tmp_path)
        proc = run_cli("analyze", str(src), "--trace", str(trace_p),
                       "--log-json", str(log_p), "--metrics", str(prom_p))
        assert proc.returncode == 0, proc.stderr
        assert "VERIFIED" in proc.stdout  # normal output untouched

        import json

        from repro.obs.metrics import validate_prometheus_text
        from repro.obs.trace import validate_chrome_trace

        assert validate_chrome_trace(json.loads(trace_p.read_text())) > 0
        assert validate_prometheus_text(prom_p.read_text()) > 0

        report = run_cli("report", str(log_p))
        assert report.returncode == 0, report.stderr
        assert "Per-operator time" in report.stdout
        assert "Per-phase spans" in report.stdout
        assert "command:" in report.stdout

    def test_batch_trace_has_job_lanes(self, tmp_path):
        import json

        src = tmp_path / "p.mini"
        src.write_text("x = 1; assert(x == 1);")
        trace_p = tmp_path / "b.trace.json"
        proc = run_cli("batch", str(src), "--jobs", "2", "--no-cache",
                       "--no-journal", "--trace", str(trace_p),
                       env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr
        events = json.loads(trace_p.read_text())["traceEvents"]
        jobs = [e for e in events
                if e.get("ph") == "X" and e["name"] == "job"]
        assert len(jobs) == 1
        lane = jobs[0]["tid"]
        assert any(e.get("ph") == "X" and e["name"] == "fixpoint"
                   and e["tid"] == lane for e in events)

    def test_batch_json_carries_rollups(self, tmp_path):
        import json

        src = tmp_path / "p.mini"
        src.write_text("x = [0, 4]; y = x + 1; assert(y <= 5);")
        out = tmp_path / "report.json"
        log_p = tmp_path / "run.jsonl"
        proc = run_cli("batch", str(src), "--jobs", "1", "--no-cache",
                       "--no-journal", "--json", str(out),
                       "--log-json", str(log_p), env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["run"].startswith("batch-")
        assert report["counters"]["cow_clones"] > 0
        assert report["op_calls"]["assign"] >= 1
        assert report["op_seconds"]["assign"] > 0
        assert report["histograms"]  # metrics armed by --log-json
        # Per-job results carry the same decomposition.
        assert report["jobs"][0]["op_calls"]["assign"] >= 1

    def test_report_on_batch_log(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("x = 1; assert(x == 1);")
        log_p = tmp_path / "run.jsonl"
        proc = run_cli("batch", str(src), "--jobs", "1", "--no-cache",
                       "--no-journal", "--log-json", str(log_p),
                       env=self._env(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = run_cli("report", str(log_p))
        assert report.returncode == 0, report.stderr
        assert "jobs:" in report.stdout
        assert "Per-operator time" in report.stdout

    def test_report_rejects_non_artifact(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("")
        proc = run_cli("report", str(bogus))
        assert proc.returncode == 2
        assert "run_summary" in proc.stderr

    def test_verbose_and_quiet_stderr(self, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("x = 1; assert(x == 1);")
        env = self._env(tmp_path)
        loud = run_cli("batch", str(src), "--jobs", "1", "--no-cache",
                       "--no-journal", "-v", env=env)
        assert "batch_done" in loud.stderr
        quiet = run_cli("batch", str(src), "--jobs", "1", "--no-cache",
                        "--no-journal", "-q", env=env)
        assert quiet.stderr.strip() == ""
        default = run_cli("batch", str(src), "--jobs", "1", "--no-cache",
                          "--no-journal", env=env)
        assert "batch_done" not in default.stderr

    def test_no_telemetry_flags_no_artifacts(self, tmp_path):
        """Without flags nothing extra appears on disk or streams."""
        src = tmp_path / "p.mini"
        src.write_text("x = 1; assert(x == 1);")
        before = set(tmp_path.iterdir())
        proc = run_cli("analyze", str(src))
        assert proc.returncode == 0
        assert set(tmp_path.iterdir()) == before


class TestSuiteAndDemo:
    def test_suite_listing(self):
        proc = run_cli("suite")
        assert proc.returncode == 0
        assert "crypt" in proc.stdout
        assert "146.0x" in proc.stdout

    def test_demo(self):
        proc = run_cli("demo")
        assert proc.returncode == 0
        assert "VERIFIED" in proc.stdout

    def test_bench_small(self):
        proc = run_cli("bench", "firefox", "--scale", "small")
        assert proc.returncode == 0, proc.stderr
        assert "speedup" in proc.stdout

    def test_unknown_command(self):
        proc = run_cli("nonsense")
        assert proc.returncode != 0
