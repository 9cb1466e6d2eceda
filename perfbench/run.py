"""The repository's benchmark: one command, four workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload relational --seed 0 --seconds 15 \
        --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``relational`` -- one-shot ``execute_job`` over the 8 CPA and TB
  programs, serially, no cache: DBM closure and octagon operators.
* ``procedural`` -- the same path over the 9 DPS and DIZY programs:
  parser, CFG builder, plan compiler and fixpoint engine.
* ``serve-editor`` -- one client connection to ``python -m repro serve
  --pool 2``: full-recompute passes and seeded editor steps.
* ``batch-cold`` -- rounds of the 17-program suite batch with the CLI
  defaults (cpu-count workers, fresh cache directory, journal).

With ``--trace 0`` the result line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run carries
every per-layer metric.  Every answer is checked against the apron
reference; a wrong answer, error, timeout or refusal is a failure.
Scratch files live under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("relational", "procedural", "serve-editor", "batch-cold")
FAMILIES = {"relational": ("CPA", "TB"), "procedural": ("DPS", "DIZY"),
            "serve-editor": None, "batch-cold": None}
#: Set-up samples per untraced run (the measured process is the last).
SETUPS = 5


def probe_ms(seconds: float = 0.5) -> list:
    """A fixed pure-Python plus numpy loop, timed while no code of the
    system under test runs: it tells host drift from a regression."""
    import numpy as np

    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        mat = np.arange(4096, dtype=np.float64).reshape(64, 64)
        for _ in range(20):
            mat = np.minimum(mat, mat[:, :1] + mat[:1, :])
        samples.append(1000.0 * (time.perf_counter() - start))
    return samples


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


def geomean_of_medians(program_ms: dict) -> float:
    meds = [median(v) for v in program_ms.values() if v]
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


# ----------------------------------------------------------------------
# in-process workloads: worker.py subprocesses
# ----------------------------------------------------------------------
def _worker_cmd(args, programs_path: str, workdir: str, ready_only: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--programs", programs_path,
           "--seconds", str(args.seconds), "--seed", str(args.seed),
           "--workdir", workdir]
    if args.trace:
        cmd.append("--trace")
    if ready_only:
        cmd.append("--ready-only")
    return cmd


def run_worker(args, programs_path: str, workdir: str, ready_only: bool):
    """Start one worker; returns ``(setup seconds, samples or None)``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(args, programs_path, workdir, ready_only), cwd=ROOT,
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not become ready: {line!r}")
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    if ready_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def run_in_process(args, programs_path: str, workdir: str) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(run_worker(args, programs_path, workdir, True)[0])
    setup, samples = run_worker(args, programs_path, workdir, False)
    setups.append(setup)
    samples["setup_s"] = setups
    return samples


# ----------------------------------------------------------------------
# serve-editor: this process is the client
# ----------------------------------------------------------------------
def run_serve(args, programs, workdir: str) -> dict:
    import oracle
    import serve_editor

    tally = oracle.Tally()
    if not args.trace:
        setups = []
        for i in range(SETUPS - 1):
            daemon = serve_editor.Daemon(ROOT, workdir, f"setup{i}")
            setups.append(daemon.setup_s)
            daemon.stop()
        daemon = serve_editor.Daemon(ROOT, workdir, "measured")
        setups.append(daemon.setup_s)
        try:
            samples = serve_editor.Session(daemon, programs, args.seed,
                                           tally).run(args.seconds)
        finally:
            daemon.stop()
        samples["setup_s"] = setups
    else:
        # Untraced then traced daemon, half the time each: the traced
        # half gives the layer table, the pair gives the overhead.
        halves = []
        spans = os.path.join(workdir, "spans.jsonl")
        for name, path in (("plain", None), ("traced", spans)):
            daemon = serve_editor.Daemon(ROOT, workdir, name, spans=path)
            try:
                halves.append(serve_editor.Session(
                    daemon, programs, args.seed, tally).run(args.seconds / 2))
            finally:
                daemon.stop()
        samples, traced = halves
        with open(spans) as fh:
            totals = json.loads(fh.read().strip().splitlines()[-1])
        samples["traced_pass_s"] = traced["pass_s"]
        samples["traced_protocol_s"] = traced["pass_protocol_s"]
        samples["layers"] = totals["totals"]
        samples["counters"] = traced["counters"]
        samples["daemon_counters"] = traced["daemon_counters"]
    samples.update(attempted=tally.attempted, failed=tally.failed,
                   failures=tally.reasons)
    return samples


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(samples: dict) -> dict:
    return {
        "setup_s": median(samples["setup_s"]),
        "suite_s": median(samples["pass_s"]),
        "program_geomean_ms": geomean_of_medians(samples["program_ms"]),
        "peak_rss_mb": samples["peak_rss_mb"],
    }


def per_layer(workload: str, samples: dict, probe: list) -> dict:
    import layers

    traced = samples.get("traced_pass_s") or []
    passes = max(len(traced), 1)
    phase = "pass" if workload == "serve-editor" else ""
    snap = samples.get("layers", {}).get(phase, {})
    self_s = snap.get("self_s", {})
    total_s = snap.get("total_s", {})
    calls = snap.get("calls", {})
    counters = samples.get("counters", {})
    daemon = samples.get("daemon_counters", {})

    def per_pass(value):
        return value / passes

    out = {
        "frontend.parse_s": per_pass(self_s.get("frontend.parse", 0.0)),
        "frontend.cfg_s": per_pass(self_s.get("frontend.cfg", 0.0)),
        "frontend.fingerprint_s": per_pass(
            self_s.get("frontend.fingerprint", 0.0)),
        "analysis.plan_compile_s": per_pass(
            self_s.get("analysis.plan_compile", 0.0)),
        "analysis.plans_compiled": per_pass(counters.get("plans_compiled", 0)),
        "analysis.fixpoint_self_s": per_pass(
            self_s.get("analysis.fixpoint", 0.0)),
        "analysis.fixpoint_runs": per_pass(counters.get("fixpoint_runs", 0)),
    }
    for family in layers.OPERATOR_FAMILIES:
        out[f"domains.{family}_s"] = per_pass(
            self_s.get(f"domains.{family}", 0.0))
        out[f"domains.{family}_calls"] = per_pass(
            calls.get(f"domains.{family}", 0))
    for kind, span in layers.CLOSURE_KINDS.items():
        out[f"core.closure.{kind}_s"] = per_pass(total_s.get(span, 0.0))
        out[f"core.closure.{kind}_calls"] = per_pass(calls.get(span, 0))
    # The decomposed closure's own work, outside the kernels it calls.
    out["core.decompose_s"] = per_pass(
        self_s.get(layers.CLOSURE_KINDS["decomposed"], 0.0))
    for kernel in layers.KERNELS:
        out[f"core.kernel.{kernel}_s"] = per_pass(
            self_s.get(f"core.kernel.{kernel}", 0.0))
    hits = counters.get("closure_cache_hits", 0)
    closures = counters.get("closures", 0)
    out["core.closure_cells"] = per_pass(counters.get("closure_cells", 0))
    out["core.closure_cache_hit_ratio"] = (hits / (hits + closures)
                                           if hits + closures else 0.0)
    for name in ("execute_job", "cache_get", "cache_put", "journal",
                 "transport"):
        out[f"service.{name}_s"] = per_pass(self_s.get(f"service.{name}", 0.0))
    out["service.transport_bytes"] = per_pass(
        counters.get("bytes_shipped", 0) + counters.get("job_bytes_shipped", 0))
    out["service.pool_wait_s"] = per_pass(self_s.get("service.pool", 0.0))
    out["service.pool_busy_share"] = median(samples.get("pool_busy", []))
    out["service.retries"] = counters.get("retries", 0)
    out["serve.daemon_s"] = per_pass(self_s.get("serve.daemon", 0.0))
    out["serve.compute_s"] = per_pass(self_s.get("serve.compute", 0.0))
    protocol = samples.get("traced_protocol_s", [])
    out["serve.protocol_s"] = sum(protocol) / passes
    out["serve.protocol_ms"] = median(samples.get("warm_protocol_ms", []))
    out["serve.daemon_ms"] = median(samples.get("warm_daemon_ms", []))
    out["serve.compute_ms"] = median(samples.get("edit_compute_ms", []))
    requested = samples.get("procs_requested", 0)
    out["serve.memory_hit_ratio"] = (samples.get("memory_hits", 0) / requested
                                     if requested else 0.0)
    computed = samples.get("edit_computed", [])
    out["serve.procs_computed"] = (sum(computed) / len(computed)
                                   if computed else 0.0)
    out["serve.worker_restarts"] = daemon.get("worker_restarts", 0)
    out["serve.overloaded"] = daemon.get("serve_errors_overloaded", 0)
    edits = samples.get("edit_ms", [])
    out["serve.edit_p50_ms"] = median(edits)
    out["serve.edit_p90_ms"] = percentile(edits, 90)
    out["serve.edit_samples"] = len(edits)
    out["serve.warm_p50_ms"] = median(samples.get("warm_ms", []))
    out["failed_share"] = samples["failed"] / max(samples["attempted"], 1)

    # Means, like the per-pass rows, so that the table adds up exactly.
    plain = statistics.fmean(samples["pass_s"])
    out["obs.untraced_suite_s"] = plain
    out["obs.traced_suite_s"] = sum(traced) / passes
    out["obs.trace_overhead_pct"] = (
        100.0 * (out["obs.traced_suite_s"] - plain) / plain if traced else 0.0)
    # Daemon-side self times plus the protocol share (round trip minus
    # daemon time) partition a serve pass; elsewhere self times alone.
    covered = sum(self_s.values()) + sum(protocol)
    out["residual_share"] = 1.0 - covered / sum(traced) if traced else 0.0
    out["host.probe_ms"] = median(probe)
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(spec: dict, trace: bool, values: dict, samples: dict) -> dict:
    """Check that ``values`` covers the spec's metrics exactly; print a
    readable table; return the result document."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"extra {extra}")
    for metric in wanted:
        print(f"{metric['name']:40s} {values[metric['name']]:14.6g} "
              f"{metric['unit']}")
    for reason in samples.get("failures", []):
        print(f"FAILED {reason}")
    return {"correct": samples["failed"] == 0,
            "attempted": samples["attempted"],
            "failed": samples["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "small"),
                        default="paper",
                        help="program scale (small: smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import inputs

    spec = load_spec()
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        programs = [vars(p) for p in inputs.programs(
            args.seed, FAMILIES[args.workload], scale=args.scale)]
        programs_path = os.path.join(workdir, "programs.json")
        with open(programs_path, "w") as fh:
            json.dump(programs, fh)
        probe = probe_ms()
        if args.workload == "serve-editor":
            samples = run_serve(args, programs, workdir)
        else:
            samples = run_in_process(args, programs_path, workdir)
        probe += probe_ms()
        if args.trace:
            values = per_layer(args.workload, samples, probe)
            spans = os.path.join(workdir, "spans.jsonl")
            keep = os.path.join(ROOT, ".perfbench", "traces",
                                f"{args.workload}-seed{args.seed}.jsonl")
            os.makedirs(os.path.dirname(keep), exist_ok=True)
            shutil.move(spans, keep)
        else:
            values = end_to_end(samples)
            print(f"{'host.probe_ms':40s} {median(probe):14.6g} ms")
        result = report(spec, bool(args.trace), values, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
