"""Tests for the batch analysis service (jobs, scheduler, cache)."""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import pytest

from repro.core import cow, workspace
from repro.obs import trace
from repro.service import (
    AnalysisJob,
    ResultCache,
    execute_job,
    run_batch,
    run_suite,
    suite_jobs,
)
from repro.service.cache import default_cache_root
from repro.service.job import jobs_from_files
from repro.workloads import BENCHMARKS

OK_SOURCE = "x = [0, 4]; y = x + 1; assert(y <= 5);"
FAIL_SOURCE = "x = [0, 4]; assert(x <= 3);"
UNBOUNDED_SOURCE = "assume(x >= 0); y = x;"


# ----------------------------------------------------------------------
# custom workers for scheduler robustness tests (module level so they
# pickle under any multiprocessing start method)
# ----------------------------------------------------------------------
def _slow_worker(job):
    if job.label == "slow":
        time.sleep(60)
    return execute_job(job)


def _raising_worker(job):
    raise RuntimeError(f"boom {job.label}")


def _dying_worker(job):
    os._exit(3)


def _pid_worker(job):
    """Records which process ran the job."""
    path = os.path.join(os.environ["REPRO_TEST_PID_DIR"], job.key())
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    return execute_job(job)


def _flaky_worker(job):
    """Fails on first contact with each job, succeeds afterwards."""
    marker = os.path.join(os.environ["REPRO_TEST_FLAKY_DIR"], job.key())
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient failure")
    return execute_job(job)


# ----------------------------------------------------------------------
# job model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_key_is_stable_and_normalised(self):
        a = AnalysisJob(source=OK_SOURCE, widening_thresholds=(1.0, 2.0))
        b = AnalysisJob(source=OK_SOURCE, widening_thresholds=(1, 2))
        assert a.key() == b.key()

    def test_label_does_not_affect_key(self):
        a = AnalysisJob(source=OK_SOURCE, label="a")
        b = AnalysisJob(source=OK_SOURCE, label="b")
        assert a.key() == b.key()

    def test_key_depends_on_source_and_options(self):
        base = AnalysisJob(source=OK_SOURCE)
        assert base.key() != AnalysisJob(source=FAIL_SOURCE).key()
        assert base.key() != AnalysisJob(source=OK_SOURCE,
                                         domain="interval").key()
        assert base.key() != AnalysisJob(source=OK_SOURCE,
                                         widening_delay=5).key()
        assert base.key() != AnalysisJob(source=OK_SOURCE,
                                         cell_budget=1000).key()

    def test_execute_job_ok(self):
        job = AnalysisJob(source=OK_SOURCE, label="demo")
        result = execute_job(job)
        assert result.ok and result.outcome == "ok"
        assert result.key == job.key()
        assert result.label == "demo"
        assert result.checks_total == 1 and result.checks_verified == 1
        assert result.all_verified
        (proc,) = result.procedures
        assert proc.reachable
        bounds = dict(zip(proc.variables, proc.box))
        assert bounds["y"] == [1.0, 5.0]
        assert result.seconds > 0

    def test_execute_job_unbounded_and_failing(self):
        result = execute_job(AnalysisJob(source=UNBOUNDED_SOURCE))
        (proc,) = result.procedures
        bounds = dict(zip(proc.variables, proc.box))
        assert bounds["x"][0] == 0.0 and bounds["x"][1] is None

        result = execute_job(AnalysisJob(source=FAIL_SOURCE))
        assert result.ok and not result.all_verified

    def test_jobs_from_files(self, tmp_path):
        p1 = tmp_path / "a.mini"
        p1.write_text(OK_SOURCE)
        p2 = tmp_path / "b.mini"
        p2.write_text(FAIL_SOURCE)
        jobs = jobs_from_files([str(p1), str(p2)], domain="interval")
        assert [j.label for j in jobs] == [str(p1), str(p2)]
        assert all(j.domain == "interval" for j in jobs)


# ----------------------------------------------------------------------
# persistent result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = AnalysisJob(source=OK_SOURCE, label="demo")
        result = execute_job(job)
        assert cache.put(job.key(), result)
        hit = cache.get(job.key())
        assert hit is not None and hit.cached
        assert hit == result  # `cached` excluded from equality
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_on_absent(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_version_isolation_and_prune(self, tmp_path):
        job = AnalysisJob(source=OK_SOURCE)
        old = ResultCache(str(tmp_path), version="0.9.0")
        old.put(job.key(), execute_job(job))
        new = ResultCache(str(tmp_path), version="1.1.0")
        assert new.get(job.key()) is None  # different version directory
        assert new.prune_stale() == 1  # the 0.9.0 entry is swept
        assert not (tmp_path / "v0.9.0").exists()

    def test_corrupt_entry_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = AnalysisJob(source=OK_SOURCE)
        cache.put(job.key(), execute_job(job))
        path = cache._path(job.key())
        path.write_text("{not json")
        assert cache.get(job.key()) is None
        assert cache.evictions == 1
        assert not path.exists()

    def test_stamp_mismatch_evicted(self, tmp_path):
        def old_version(entry):
            entry["repro_version"] = "0.0.0"

        def schema_6_with_kernel_backend(entry):
            entry["result"]["schema"] = 6
            entry["result"]["kernel_backend"] = "numpy"

        def schema_7(entry):
            # Pre-v8 timings: octagon_seconds double-counted closures
            # run inside operators, and closures had no table rows.
            entry["result"]["schema"] = 7

        job = AnalysisJob(source=OK_SOURCE)
        result = execute_job(job)
        for i, stale in enumerate((old_version, schema_6_with_kernel_backend,
                                   schema_7)):
            cache = ResultCache(str(tmp_path / str(i)))
            cache.put(job.key(), result)
            path = cache._path(job.key())
            entry = json.loads(path.read_text())
            stale(entry)
            path.write_text(json.dumps(entry))
            assert cache.get(job.key()) is None, stale.__name__
            assert (cache.misses, cache.evictions) == (1, 1), stale.__name__
            assert not path.exists()

    def test_only_ok_results_stored(self, tmp_path):
        from repro.service.job import JobResult

        cache = ResultCache(str(tmp_path))
        bad = JobResult(key="k" * 64, label="x", domain="octagon",
                        outcome="timeout", error="too slow")
        assert not cache.put(bad.key, bad)
        assert len(cache) == 0

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_root() == str(tmp_path / "envcache")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root().endswith(os.path.join(".cache", "repro"))


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
def _ok_jobs(n):
    return [AnalysisJob(source=OK_SOURCE + f"\nz = {i};", label=f"job{i}")
            for i in range(n)]


class TestScheduler:
    def test_inline_basic(self):
        batch = run_batch(_ok_jobs(3), workers=1)
        assert batch.all_ok and batch.workers == 1
        assert [r.label for r in batch.results] == ["job0", "job1", "job2"]
        assert batch.checks_total == 3 and batch.checks_verified == 3

    def test_parallel_preserves_input_order(self):
        batch = run_batch(_ok_jobs(6), workers=4)
        assert batch.all_ok
        assert [r.label for r in batch.results] == [f"job{i}" for i in range(6)]

    def test_timeout_isolated_from_siblings(self):
        jobs = [AnalysisJob(source=OK_SOURCE, label="slow"),
                AnalysisJob(source=OK_SOURCE, label="fast1"),
                AnalysisJob(source=OK_SOURCE, label="fast2")]
        batch = run_batch(jobs, workers=2, timeout=1.5, worker=_slow_worker)
        by_label = {r.label: r for r in batch.results}
        assert by_label["slow"].outcome == "timeout"
        assert "timeout" in by_label["slow"].error
        assert by_label["fast1"].ok and by_label["fast2"].ok

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_worker_retried_then_error(self, workers):
        batch = run_batch(_ok_jobs(1), workers=workers, retries=1,
                          worker=_raising_worker)
        (result,) = batch.results
        assert result.outcome == "error"
        assert result.attempts == 2
        assert "boom" in result.error

    def test_worker_death_reported_as_error(self):
        batch = run_batch(_ok_jobs(2), workers=2, retries=1,
                          worker=_dying_worker)
        for result in batch.results:
            assert result.outcome == "error"
            assert result.attempts == 2
            assert "exit code" in result.error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_failure_recovers_on_retry(self, workers, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        batch = run_batch(_ok_jobs(2), workers=workers, retries=1,
                          worker=_flaky_worker)
        for result in batch.results:
            assert result.ok
            assert result.attempts == 2

    def test_error_batch_still_returns_every_job(self):
        jobs = _ok_jobs(3)
        batch = run_batch(jobs, workers=2, retries=0, worker=_raising_worker)
        assert len(batch.results) == 3
        assert not batch.all_ok
        assert batch.outcome_counts() == {"error": 3}

    def test_pool_workers_are_long_lived(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        batch = run_batch(_ok_jobs(6), workers=2, worker=_pid_worker)
        assert batch.all_ok
        pids = [p.read_text() for p in tmp_path.iterdir()]
        assert len(pids) == 6
        assert 1 <= len(set(pids)) <= 2
        assert str(os.getpid()) not in pids

    def test_pooled_counters_match_inline(self):
        """The pool adds no counters to a job's result.  Run in a fresh
        interpreter: this session has loaded every subsystem already."""
        code = """
import json
from repro.service import AnalysisJob, run_batch
jobs = [AnalysisJob(source="x = [0, 4]; y = x + 1; assert(y <= 5);",
                    label="a"),
        AnalysisJob(source="z = 3; assert(z == 3);", label="b")]
print(json.dumps([[sorted(r.counters)
                   for r in run_batch(jobs, workers=n).results]
                  for n in (1, 2)]))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        inline, pooled = json.loads(proc.stdout.strip().splitlines()[-1])
        assert inline[0] and inline == pooled

    def test_cache_short_circuits_second_run(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = _ok_jobs(3)
        cold = run_batch(jobs, workers=2, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        warm = run_batch(jobs, workers=2, cache=cache)
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert [r.verdicts() for r in warm.results] == \
            [r.verdicts() for r in cold.results]
        assert warm.results == cold.results  # cached flag excluded from eq


# ----------------------------------------------------------------------
# determinism under parallelism + suite integration
# ----------------------------------------------------------------------
@contextmanager
def _memory_layer_off():
    with cow.disabled(), workspace.disabled():
        yield


class TestSuiteThroughService:
    def test_suite_jobs_cover_every_benchmark(self):
        jobs = suite_jobs("small")
        assert [j.label for j in jobs] == [b.name for b in BENCHMARKS]
        assert len({j.key() for j in jobs}) == len(jobs)

    def test_parallel_and_inline_runs_identical(self):
        """Every way of running the suite agrees with untraced jobs=1 on
        every verdict and every bound: jobs=4, tracing on, interpreted
        transfers, the hot-path memory layer off, and budgets that never
        trip.  A run with a layer off reads zero on that layer's
        counters, which the reference run shows non-zero."""
        variants = {
            "jobs=4": (nullcontext, {"workers": 4}, ()),
            "traced": (trace.session, {}, ()),
            "interpreted": (nullcontext, {"compile_transfer": False},
                            ("plans_compiled", "plan_exec")),
            "memory layer off": (_memory_layer_off, {},
                                 ("copies_avoided", "workspace_hits")),
            "generous budgets": (nullcontext, {
                "time_budget": 3600.0, "iteration_budget": 10**9,
                "cell_budget": 10**15}, ()),
        }
        inline = run_suite("small", workers=1)
        assert inline.all_ok
        for name, (context, options, zero) in variants.items():
            with context() as scope:
                other = run_suite("small", **{"workers": 1, **options})
            assert other.all_ok, name
            if name == "traced":
                assert scope.events, "tracing on recorded no spans"
            for seq, par in zip(inline.results, other.results):
                assert seq.label == par.label
                assert seq.verdicts() == par.verdicts(), (name, seq.label)
                assert seq.procedures == par.procedures, (name, seq.label)
            for counter in zero:
                assert inline.counters()[counter] > 0, (name, counter)
                assert other.counters()[counter] == 0, (name, counter)

    def test_suite_matches_direct_analysis(self):
        from repro.analysis import Analyzer

        bench = BENCHMARKS[0]
        batch = run_batch([bench.job("small")], workers=1)
        (result,) = batch.results
        direct = Analyzer(domain="octagon").analyze(bench.source("small"))
        assert result.checks_verified == \
            sum(1 for c in direct.checks if c.verified)
        assert result.checks_total == len(direct.checks)
