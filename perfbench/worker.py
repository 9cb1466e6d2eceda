"""The measured process of the in-process workloads.

Started once per set-up sample by ``run.py``::

    python3 perfbench/worker.py --workload relational --programs FILE \
        --seconds 15 --seed 3 --workdir DIR [--trace] [--ready-only]

It imports the system under test, loads the generated programs, prints
``ready`` (the end of set-up), and then -- unless ``--ready-only`` --
runs the workload's closed loop for ``--seconds`` and prints one JSON
line of raw samples.  Every answer is checked against its apron
reference as it is collected; checking is not inside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time

import oracle

#: Fewest timed passes/rounds per run, whatever ``--seconds`` says.
MIN_PASSES = 3


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any child it has reaped
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_passes(seconds: float, run_pass, recorder=None) -> dict:
    """Call ``run_pass()`` until ``seconds`` have elapsed (at least
    ``MIN_PASSES`` times) and collect the wall time each returns (its
    oracle checks excluded).

    With a recorder, passes alternate untraced/traced, so one run gives
    both medians and their difference is the tracing overhead.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    count = 0
    while count < MIN_PASSES or time.perf_counter() < deadline:
        tracing = recorder is not None and count % 2 == 1
        if recorder is not None:
            recorder.enabled = tracing
        (traced if tracing else plain).append(run_pass())
        count += 1
    if recorder is not None:
        recorder.enabled = False
    return {"pass_s": plain, "traced_pass_s": traced}


def oneshot(programs, seconds: float, seed: int, recorder=None) -> tuple:
    """Serial one-shot ``execute_job`` over the programs, no cache."""
    from repro.service.job import AnalysisJob, execute_job

    jobs = [(p, AnalysisJob(source=p["source"], label=p["name"]))
            for p in programs]
    rng = random.Random(seed)
    tally = oracle.Tally()
    program_ms = {p["name"]: [] for p in programs}
    counters = {}

    def run_pass():
        order = list(jobs)
        rng.shuffle(order)
        done = []
        start = time.perf_counter()
        for program, job in order:
            if recorder is not None:
                recorder.request += 1
            started = time.perf_counter()
            result = execute_job(job)
            done.append((program, result, time.perf_counter() - started))
        wall = time.perf_counter() - start
        for program, result, elapsed in done:
            tally.record(program["name"],
                         oracle.job_failure(result, program["reference"]))
            program_ms[program["name"]].append(1000.0 * elapsed)
            if recorder is not None and recorder.enabled:
                for name, value in result.counters.items():
                    counters[name] = counters.get(name, 0) + value
        return wall

    for program, job in jobs:  # warm-up: lazy set-up, checked too
        tally.record(program["name"], oracle.job_failure(
            execute_job(job), program["reference"]))
    out = timed_passes(seconds, run_pass, recorder)
    out.update(program_ms=program_ms, counters=counters)
    return out, tally


def batch_cold(programs, seconds: float, seed: int, workdir: str,
               recorder=None) -> tuple:
    """Rounds of the suite batch with the CLI defaults: ``os.cpu_count()``
    workers, a fresh cache directory and a journal per round."""
    from repro.service import BatchJournal, ResultCache, run_batch
    from repro.service.job import AnalysisJob

    jobs = [AnalysisJob(source=p["source"], label=p["name"])
            for p in programs]
    by_label = {p["name"]: p for p in programs}
    tally = oracle.Tally()
    program_ms = {p["name"]: [] for p in programs}
    counters = {}
    busy = []
    rounds = [0]

    def run_round():
        rounds[0] += 1
        if recorder is not None:
            recorder.request = rounds[0]
        root = os.path.join(workdir, f"round-{rounds[0]}")
        start = time.perf_counter()
        cache = ResultCache(root)
        journal = BatchJournal.for_jobs(jobs, root=root)
        batch = run_batch(jobs, cache=cache, journal=journal)
        makespan = time.perf_counter() - start
        for result in batch.results:
            tally.record(result.label, oracle.job_failure(
                result, by_label[result.label]["reference"]))
            program_ms[result.label].append(1000.0 * result.seconds)
        if recorder is not None and recorder.enabled:
            busy.append(sum(r.seconds for r in batch.results)
                        / (batch.workers * makespan))
            for name, value in batch.counters().items():
                counters[name] = counters.get(name, 0) + value
            counters["retries"] = counters.get("retries", 0) + sum(
                r.attempts - 1 for r in batch.results)
        shutil.rmtree(root, ignore_errors=True)
        return makespan

    run_round()  # warm-up round, checked too
    for values in program_ms.values():
        values.clear()
    out = timed_passes(seconds, run_round, recorder)
    out.update(program_ms=program_ms, counters=counters, pool_busy=busy)
    return out, tally


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["relational", "procedural", "batch-cold"])
    parser.add_argument("--programs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args()

    import repro.service  # noqa: F401 -- the system under test
    import repro.service.job  # noqa: F401

    with open(args.programs) as fh:
        programs = json.load(fh)
    recorder = None
    if args.trace and not args.ready_only:
        import layers

        recorder = layers.install(layers.Recorder())
        recorder.enabled = False
    print("ready", flush=True)
    if args.ready_only:
        return 0

    if args.workload == "batch-cold":
        out, tally = batch_cold(programs, args.seconds, args.seed,
                                args.workdir, recorder)
    else:
        out, tally = oneshot(programs, args.seconds, args.seed, recorder)
    out.update(attempted=tally.attempted, failed=tally.failed,
               failures=tally.reasons, peak_rss_mb=peak_rss_mb())
    if recorder is not None:
        out["layers"] = recorder.snapshot()
        recorder.dump(os.path.join(args.workdir, "spans.jsonl"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
