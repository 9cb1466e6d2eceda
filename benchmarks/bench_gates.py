"""Paired timing gates: the repository's overhead and ablation bounds,
judged by ``ab.py``'s noise rule.

Usage::

    REPRO_BENCH_SCALE=paper PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q
    REPRO_BENCH_SCALE=small PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q -k pool

Every gate times two sides, A and B, over the 17-benchmark suite.  A
pair is one suite pass of each side, interleaved program by program:
A and B analyse program ``k`` back to back, the first side alternating
from program to program and from pair to pair.  The CPU speed of a
shared host drifts over seconds, and this way both sums of a pair see
the same drift.  One unmeasured pair comes first, then ``PAIRS``
measured ones.  Both sides of every pair must give identical verdicts
and procedure summaries.  ``ab.verdict`` judges each gate on the pairs'
wall seconds, with A as the base and B as the change:

* an overhead gate (B pays a cost A does not) fails when B reads
  ``worse`` at its bound: the fraction in ``GATES`` plus the gate's
  absolute slack, taken as a fraction of A's median;
* an ablation gate (A switches off an optimisation B has) holds only
  when B reads ``gain`` and median(A) / median(B) meets its threshold.

The rows of the gates run, every verdict included, are written to
``results/gates.txt`` before any gate asserts.
"""

import gc
import itertools
import os
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import pytest
from ab import iqr, verdict
from conftest import bench_scale

from repro.bench import format_table, save_result
from repro.core import cow, workspace
from repro.core.serialize import job_result_from_dict
from repro.obs import trace
from repro.serve import AnalysisServer, ServeClient
from repro.service import execute_job, suite_jobs
from repro.workloads.suite import BENCHMARKS

SCALE = bench_scale()
PAIRS = 10
PROGRAMS = len(BENCHMARKS)
#: Generous enough that no suite benchmark ever trips them.
GENEROUS = dict(time_budget=3600.0, iteration_budget=10**9,
                cell_budget=10**15)


class Run(NamedTuple):
    """One side of a pair: wall seconds of its last pass over the suite
    and that pass's results; ``cold`` is its first pass (serve sides
    time a cold pass, then a warm one)."""

    seconds: float
    results: list
    cold: float


def suite_side(context=nullcontext, **options):
    """One-shot analysis in this process under ``context``; yields
    ``analyze(k)`` for suite program ``k``."""
    @contextmanager
    def side():
        jobs = suite_jobs(SCALE, **options)

        def analyze(k):
            with context():
                return execute_job(jobs[k])
        yield analyze
    return side


@contextmanager
def stripped():
    """The tracer's entry points replaced by bare no-ops: what the code
    would cost if its instrumentation calls were deleted."""
    real = trace.span, trace.emit
    trace.span = lambda name, /, **attrs: trace.NULL_SPAN
    trace.emit = lambda name, start, end, **kwargs: None
    try:
        yield
    finally:
        trace.span, trace.emit = real


@contextmanager
def memory_layer_off():
    """Copy-on-write DBMs, kernel workspaces and the closure cache off:
    the pre-optimisation allocation behaviour."""
    with cow.disabled(), workspace.disabled():
        yield


def serve_side(pool: int):
    """A fresh daemon with the observability plane armed (HTTP facade,
    trace contexts, slow-request checks); yields ``analyze(k)``, which
    sends suite program ``k`` and returns the response.  Requests after
    the first pass must be served from the memory tier."""
    @contextmanager
    def side():
        jobs = suite_jobs(SCALE)
        tmp = tempfile.mkdtemp(prefix="repro-gates-")
        server = AnalysisServer(os.path.join(tmp, "serve.sock"),
                                use_cache=False, workers=2, pool=pool,
                                http_port=0, slow_request_ms=60_000.0)
        server.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        calls = itertools.count()
        try:
            with ServeClient(server.socket_path) as client:
                def analyze(k):
                    warm = next(calls) >= len(jobs)
                    response = client.analyze(jobs[k].source,
                                              label=jobs[k].label)
                    assert response["ok"], response
                    assert not warm or response["tiers"]["computed"] == 0
                    return response
                yield analyze
        finally:
            with ServeClient(server.socket_path) as client:
                client.shutdown()
            thread.join(timeout=30)
            shutil.rmtree(tmp, ignore_errors=True)
        assert not thread.is_alive()
    return side


#: Side pairs (A, B, passes per pair); gates that name the same side
#: pair judge the same runs.
SIDES = {
    "telemetry": (suite_side(stripped), suite_side(), 1),
    "checkpoint": (suite_side(), suite_side(**GENEROUS), 1),
    "serve": (serve_side(pool=0), serve_side(pool=2), 2),
    "memory": (suite_side(memory_layer_off), suite_side(), 1),
    "compile": (suite_side(compile_transfer=False), suite_side(), 1),
}


class Gate(NamedTuple):
    a: str
    b: str
    sides: str
    #: Overhead gate: B may be slower than A by this fraction ...
    bound: Optional[float] = None
    #: ... plus these absolute seconds.
    slack: float = 0.0
    #: Ablation gate: median(A) / median(B) must reach this.
    speedup: Optional[float] = None
    #: False records the row without asserting it.
    gated: bool = True
    #: Maps the measured (A, B) pairs to the pairs this gate judges.
    select: Callable = list


GATES = {
    "telemetry": Gate("tracer stripped", "tracing disabled", "telemetry",
                      bound=0.02, slack=0.02),
    "checkpoint": Gate("ungoverned", "generous budgets", "checkpoint",
                       bound=0.02, slack=0.02),
    "pool": Gate("warm inline", "warm pool=2", "serve", bound=0.10,
                 slack=0.002 * PROGRAMS),
    "cold_warm": Gate("cold inline", "warm inline", "serve", speedup=5.0,
                      select=lambda pairs: [(a._replace(seconds=a.cold), a)
                                            for a, _ in pairs]),
    "cow_workspace": Gate("memory layer off", "memory layer on", "memory",
                          speedup=1.3),
    # Per-program times are milliseconds at small scale: no gate there.
    "compiled_plans": Gate("interpreted", "compiled plans", "compile",
                           speedup=1.0, gated=SCALE != "small"),
}


@lru_cache(maxsize=None)
def measure(sides: str) -> list:
    """``PAIRS`` (A run, B run) pairs of one side pair, after one
    unmeasured pair."""
    a, b, passes = SIDES[sides]
    pairs = []
    for i in range(PAIRS + 1):
        gc.collect()
        seconds = [[0.0] * passes, [0.0] * passes]
        results = [[], []]
        # B first: a pooled daemon forks its workers as it starts, before
        # the other daemon's threads exist.
        with b() as analyze_b, a() as analyze_a:
            analyze = (analyze_a, analyze_b)
            for p, k in itertools.product(range(passes), range(PROGRAMS)):
                first = (i + k) % 2
                for s in (first, 1 - first):
                    start = time.perf_counter()
                    result = analyze[s](k)
                    seconds[s][p] += time.perf_counter() - start
                    if p == passes - 1:
                        results[s].append(result)
        if i:
            pairs.append(tuple(Run(t[-1], r, t[0])
                               for t, r in zip(seconds, results)))
    return pairs


def facts(run: Run) -> list:
    """Label, verdicts, procedures and completion per program; a serve
    response is parsed here, outside the timed call."""
    parsed = [job_result_from_dict(r["result"]) if isinstance(r, dict)
              else r for r in run.results]
    return [(r.label, r.verdicts(), r.procedures, r.completed)
            for r in parsed]


def unfinished(runs) -> int:
    """Programs that did not complete, over all runs of one side."""
    return sum(not completed for run in runs for *_, completed in run)


ROWS = {}


@pytest.mark.parametrize("name", GATES)
def test_gate(name):
    gate = GATES[name]
    pairs = gate.select(measure(gate.sides))
    a_facts = [facts(a) for a, _ in pairs]
    b_facts = [facts(b) for _, b in pairs]
    assert a_facts == b_facts, name
    base = [a.seconds for a, _ in pairs]
    change = [b.seconds for _, b in pairs]
    wins = sum(c < b for b, c in zip(base, change))
    b_med, c_med = statistics.median(base), statistics.median(change)
    failures = {"base": unfinished(a_facts), "change": unfinished(b_facts)}
    if gate.speedup is None:
        verdict_ = verdict(base, change, wins, True,
                           gate.bound + gate.slack / b_med, failures)
        ratio = c_med / b_med
        held = verdict_ != "worse"
        rule = f"not worse at +{gate.bound:.0%} +{gate.slack:g} s"
    else:
        verdict_ = verdict(base, change, wins, True, 0.0, failures)
        ratio = b_med / c_med
        held = verdict_ == "gain" and ratio >= gate.speedup
        rule = f"gain and A/B >= {gate.speedup:g}"
    ms = [f"{x * 1e3:.1f}" for x in (b_med, iqr(base), c_med, iqr(change))]
    ROWS[name] = [
        name, gate.a, gate.b, *ms, f"{ratio:.3f}", f"{wins}/{len(pairs)}",
        f"{failures['base']}/{failures['change']}", verdict_, rule,
        ("yes" if held else "NO") if gate.gated else "not gated"]
    table = format_table(
        ["gate", "A", "B", "A ms", "A IQR", "B ms", "B IQR", "ratio",
         "B wins", "failed", "verdict", "rule", "held"],
        [ROWS[g] for g in GATES if g in ROWS],
        title=(f"Paired timing gates, 17-benchmark suite, scale={SCALE}: "
               f"medians of {PAIRS} pairs interleaved per program; ratio "
               "is B/A for overhead gates and A/B for ablation gates"))
    print("\n" + table)
    save_result("gates", table)
    assert held or not gate.gated, (
        f"{name}: {verdict_}, ratio {ratio:.3f}, rule {rule}")
