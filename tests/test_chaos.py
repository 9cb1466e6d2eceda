"""Chaos tests: injected faults against the batch service.

These drive the production fault points in :mod:`repro.testing.faults`
-- a worker segfaulting mid-job, the disk filling under the result
cache, a SIGKILL landing on a half-finished batch -- and assert the
service's contract: the batch always completes with one sound-or-
explicit-failure result per job, and a killed batch resumes from its
journal with identical verdicts.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs import events
from repro.service.cache import ResultCache
from repro.service.job import AnalysisJob
from repro.service.scheduler import run_batch
from repro.testing import faults

OK_SOURCE = "x = [0, 4]; y = x + 1; assert(y <= 5);"
OK2_SOURCE = "z = 3; assert(z == 3);"


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.clear()


class TestFaultRegistry:
    def test_fire_only_when_armed(self):
        assert not faults.fire("worker_kill")
        with faults.injected("worker_kill"):
            assert faults.fire("worker_kill")
        assert not faults.fire("worker_kill")

    def test_arg_restricts_firing(self):
        with faults.injected("worker_kill", "victim"):
            assert not faults.fire("worker_kill", "bystander")
            assert faults.fire("worker_kill", "victim")

    def test_env_roundtrip(self):
        faults.inject("cache_enospc")
        faults.inject("worker_kill", "victim")
        try:
            spec = os.environ["REPRO_FAULTS"]
            assert faults._parse_env(spec) == {"cache_enospc": None,
                                               "worker_kill": "victim"}
        finally:
            faults.clear()
        assert "REPRO_FAULTS" not in os.environ


class TestWorkerKill:
    def test_killed_worker_reported_dead_siblings_unharmed(self):
        jobs = [AnalysisJob(source=OK_SOURCE, label="bystander"),
                AnalysisJob(source=OK2_SOURCE, label="victim")]
        # Pool mode only: the fault calls os._exit, which inline would
        # take down the test process.  Forked workers inherit the armed
        # registry, so every retry dies the same way.
        with faults.injected("worker_kill", "victim"):
            batch = run_batch(jobs, workers=2, retries=1)
        bystander, victim = batch.results
        assert bystander.ok
        assert victim.outcome == "error"
        assert "worker died" in victim.error
        assert victim.attempts == 2  # first run + one retry, both killed


class TestCacheEnospc:
    def test_full_disk_disables_cache_batch_survives(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = [AnalysisJob(source=OK_SOURCE, label="a"),
                AnalysisJob(source=OK2_SOURCE, label="b")]
        with faults.injected("cache_enospc"):
            with events.capture() as caught:
                batch = run_batch(jobs, workers=1, cache=cache)
        # The analysis is unharmed; only persistence is lost.
        assert batch.all_ok
        assert cache.disabled
        assert cache.write_errors == 1  # disabled after the first failure
        disabled = [e for e in caught if e.name == "result_cache_disabled"]
        assert len(disabled) == 1
        assert disabled[0].level == events.WARNING
        assert "No space left" in disabled[0].fields["error"]
        assert cache.get(jobs[0].key()) is None

    def test_reads_keep_working_after_write_failure(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = AnalysisJob(source=OK_SOURCE, label="a")
        run_batch([job], workers=1, cache=cache)  # warm normally
        with faults.injected("cache_enospc"):
            with events.quiet_stderr():
                run_batch([job, AnalysisJob(source=OK2_SOURCE, label="b")],
                          workers=1, cache=cache)
        assert cache.disabled
        assert cache.get(job.key()) is not None


def _heavy_source(nprocs: int, nvars: int = 12) -> str:
    """Many small procedures: seconds of work, killable mid-batch."""
    procs = []
    for p in range(nprocs):
        decls = "; ".join(f"v{k} = [0, {k + 1}]" for k in range(nvars))
        bumps = " ".join(f"v{k} = v{k} + 1;" for k in range(nvars))
        procs.append(f"proc p{p} {{ {decls}; i = 0;"
                     f" while (i < 50) {{ i = i + 1; {bumps} }}"
                     f" assert (i >= 50); }}")
    return "\n".join(procs)


def _proc_stat(pid: int):
    """``(state, ppid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children(pid: int):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.slow
class TestSigkillResume:
    def _cli(self, *args, env):
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, timeout=300,
                              env=env)

    def _verdicts(self, report_path):
        report = json.loads(report_path.read_text())
        return {job["label"]: (job["outcome"],
                               sorted((proc, cond, bool(ok))
                                      for proc, cond, ok in job["checks"]))
                for job in report["jobs"]}

    def test_resume_after_sigkill_matches_clean_run(self, tmp_path):
        """The ISSUE acceptance bar: SIGKILL a jobs=4 batch mid-run,
        ``--resume`` it, and the final verdicts must match a clean
        single-worker run exactly (with journaled jobs not re-run)."""
        files = []
        for idx in range(4):
            path = tmp_path / f"prog{idx}.mini"
            # One quick job (journaled almost immediately -- the kill
            # signal) and three slow ones still running when it lands.
            path.write_text(OK_SOURCE if idx == 0 else _heavy_source(120))
            files.append(str(path))
        journal = tmp_path / "batch.jsonl"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", *files, "--jobs", "4",
             "--no-cache", "--journal", str(journal)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count("\n") >= 1:
                    break
                if victim.poll() is not None:
                    break  # finished before we could kill it; still valid
                time.sleep(0.02)
            else:
                pytest.fail("journal never gained a record")
        finally:
            orphans = []
            if victim.poll() is None:
                orphans = _children(victim.pid)
                os.kill(victim.pid, signal.SIGKILL)
            victim.wait()
        journaled_before_resume = journal.read_text().count("\n")
        assert journaled_before_resume >= 1
        # The killed batch's pool workers notice their parent is gone
        # and exit on their own.
        deadline = time.monotonic() + 5.0
        while (any(_running(pid) for pid in orphans)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not [pid for pid in orphans if _running(pid)]

        resumed_report = tmp_path / "resumed.json"
        resumed = self._cli("batch", *files, "--jobs", "4", "--no-cache",
                            "--journal", str(journal), "--resume",
                            "--json", str(resumed_report), env=env)
        assert resumed.returncode == 0, resumed.stderr
        if victim.returncode != 0:  # genuinely killed mid-run
            assert f"{journaled_before_resume} job(s) resumed" \
                in resumed.stdout

        clean_report = tmp_path / "clean.json"
        clean = self._cli("batch", *files, "--jobs", "1", "--no-cache",
                          "--no-journal", "--json", str(clean_report),
                          env=env)
        assert clean.returncode == 0, clean.stderr

        assert self._verdicts(resumed_report) == self._verdicts(clean_report)


class TestServeSigterm:
    """SIGTERM against the analysis daemon: no stale socket file."""

    def _spawn_server(self, tmp_path):
        sock = tmp_path / "serve.sock"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", str(sock)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        try:
            from repro.serve.client import wait_ready

            wait_ready(str(sock), timeout=30)
        except Exception:
            proc.kill()
            proc.wait()
            raise
        return proc, sock

    def test_sigterm_mid_request_cleans_socket_and_shm(self, tmp_path):
        import socket as socketlib

        proc, sock = self._spawn_server(tmp_path)
        conn = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        try:
            conn.connect(str(sock))
            # Half a frame: the handler thread is now blocked mid-read,
            # which is as mid-request as a kill can land.
            conn.sendall((64).to_bytes(4, "big") + b"partial")
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert not sock.exists()  # no stale socket file

    def test_restart_reclaims_stale_socket_file(self, tmp_path):
        """A crashed server's leftover socket file must not block the
        next start (the stale-probe path), but a *live* server must."""
        proc, sock = self._spawn_server(tmp_path)
        try:
            # Second server on the same path: refused while live.
            env = dict(os.environ)
            env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
            dup = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", str(sock)],
                capture_output=True, text=True, timeout=60, env=env)
            assert dup.returncode == 2
            assert "another server is live" in dup.stderr
        finally:
            os.kill(proc.pid, signal.SIGKILL)  # crash: no cleanup runs
            proc.wait()
        assert sock.exists()  # SIGKILL left the stale file behind
        proc2, sock2 = self._spawn_server(tmp_path)  # reclaims it
        os.kill(proc2.pid, signal.SIGTERM)
        assert proc2.wait(timeout=30) == 0
        assert not sock2.exists()
