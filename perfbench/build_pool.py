"""Regenerate ``pool.json``: cost-matched program variants and their
apron references.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/build_pool.py

For each suite program it generates variants ``1..CANDIDATES``, times
each one-shot octagon analysis (best of three), keeps the variants within
``inputs.TOLERANCE`` of the median time (at least the three closest) as
``matched``, and stores the apron reference of variant 0 (the registered
program) and of every matched variant.  A variant whose octagon verdicts differ from its
apron reference is reported on stderr and kept: the oracle should
see it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import inputs
import oracle

CANDIDATES = 16
MIN_MATCHED = 3


def best_ms(source: str) -> float:
    from repro.service.job import AnalysisJob, execute_job

    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = execute_job(AnalysisJob(source=source))
        times.append(time.perf_counter() - start)
        if result.outcome != "ok":
            raise RuntimeError(f"octagon analysis: {result.outcome}")
    return 1000.0 * min(times)


def select(cost: dict) -> tuple:
    """``(median, matched)``: the variants (not 0) within
    ``inputs.TOLERANCE`` of the median cost, or the ``MIN_MATCHED``
    closest to it when fewer are that close."""
    mid = statistics.median(cost[k] for k in cost if k)
    by_distance = sorted((abs(cost[k] - mid), k) for k in cost if k)
    matched = [k for gap, k in by_distance if gap <= inputs.TOLERANCE * mid]
    if len(matched) < MIN_MATCHED:
        matched = [k for _, k in by_distance[:MIN_MATCHED]]
    return mid, sorted(matched)


def write_pool(pool: dict, fh) -> None:
    """One program per line: compact, and diffs stay per program."""
    head = {k: v for k, v in pool.items() if k != "programs"}
    fh.write(json.dumps(head, sort_keys=True)[:-1] + ', "programs": {\n')
    rows = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in pool["programs"].items()]
    fh.write(",\n".join(rows) + "\n}}\n")


def main() -> int:
    from repro.service.job import AnalysisJob, execute_job
    from repro.workloads.suite import BENCHMARKS

    pool = {"stride": inputs.VARIANT_STRIDE, "tolerance": inputs.TOLERANCE,
            "programs": {}}
    for bench in BENCHMARKS:
        cost = {k: best_ms(inputs.variant_source(bench, k))
                for k in range(CANDIDATES + 1)}
        mid, matched = select(cost)
        refs = {}
        for k in [0] + matched:
            source = inputs.variant_source(bench, k)
            refs[str(k)] = oracle.reference(source)
            octagon = oracle.job_verdicts(execute_job(AnalysisJob(source=source)))
            if octagon != refs[str(k)]:
                print(f"MISMATCH {bench.name} variant {k}", file=sys.stderr)
        pool["programs"][bench.name] = {
            "family": bench.analyzer,
            "cost_ms": {str(k): round(v, 2) for k, v in cost.items()},
            "matched": matched,
            "references": refs,
        }
        print(f"{bench.name}: median {mid:.1f} ms, matched {matched}",
              file=sys.stderr, flush=True)
    with open(inputs.POOL_PATH, "w") as fh:
        write_pool(pool, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
