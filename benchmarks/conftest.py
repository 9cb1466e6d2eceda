"""Shared configuration for the benchmark harness.

Every paper reproduction measures a full workload once (``pedantic``
mode with a single round): the workloads are deterministic,
seconds-long end-to-end analyses, not microkernels.  The gates of
``bench_gates.py`` are the exception: they compare two timings a few
percent apart, so they repeat in interleaved pairs.  Scale is
controlled by ``REPRO_BENCH_SCALE`` (small | paper | large, default
paper).
"""

import os

import pytest


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "paper")


@pytest.fixture
def scale() -> str:
    return bench_scale()


def run_once(benchmark, fn, *, counters=None):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    ``counters`` (a dict, or a callable producing one once the run is
    done) lands in ``benchmark.extra_info`` so persisted results capture
    the hot-path memory counters next to the wall time.
    """
    result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    if counters is not None:
        info = counters() if callable(counters) else counters
        benchmark.extra_info.update(info)
    return result
