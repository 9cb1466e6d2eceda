"""Interleaved A/B of the repository benchmark: a base commit against the
working tree.

Usage (from anywhere inside the repository)::

    python3 benchmarks/ab.py --base HEAD~1
    python3 benchmarks/ab.py --base main --pairs 8 --workloads procedural

The base commit is checked out with ``git worktree`` under a fresh
temporary directory and removed again at the end.  The change is the
working tree this script lives in, committed or not.

Pair ``i`` runs ``perfbench/run.py --seed i --trace 0`` once on base and
once on change for every workload, each in its own tree and for
``BENCHMARK.json``'s ``run_seconds``; even pairs run base first, odd
pairs change first, so host drift does not favour one side.  For every end-to-end metric of ``BENCHMARK.json`` the script
prints, per workload, the median and interquartile range (IQR) of each
side, the median change in percent and the number of pairs the change
won.  A run that reports a failed answer is counted and shown.

Standard library only; it changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("relational", "procedural", "serve-editor", "batch-cold")


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``; its result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=30 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(spec: dict, runs: dict) -> list:
    """Rows of (workload, metric, unit, base median, base IQR, change
    median, change IQR, delta %, wins, pairs)."""
    rows = []
    for workload, pairs in runs.items():
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [p["base"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            wins = sum((c < b) if lower else (c > b)
                       for b, c in zip(base, change))
            b_med, c_med = statistics.median(base), statistics.median(change)
            delta = 100.0 * (c_med - b_med) / b_med if b_med else 0.0
            rows.append((workload, name, metric["unit"], b_med, iqr(base),
                         c_med, iqr(change), delta, wins, len(pairs)))
    return rows


def print_table(rows: list, runs: dict) -> None:
    print(f"{'workload':13s} {'metric':19s} {'base median':>12s} "
          f"{'IQR':>9s} {'change median':>14s} {'IQR':>9s} {'delta':>8s} "
          f"{'wins':>6s}")
    for (workload, name, unit, b_med, b_iqr, c_med, c_iqr, delta, wins,
         pairs) in rows:
        print(f"{workload:13s} {name:19s} {b_med:12.4g} {b_iqr:9.3g} "
              f"{c_med:14.4g} {c_iqr:9.3g} {delta:+7.1f}% {wins:>3d}/{pairs}"
              f"  {unit}")
    for workload, pairs in runs.items():
        failed = {side: sum(p[side]["failed"] for p in pairs)
                  for side in ("base", "change")}
        print(f"{workload}: failed answers base={failed['base']} "
              f"change={failed['change']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="base revision (default: HEAD, i.e. the "
                             "working tree's uncommitted change)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved pairs per workload; pair i "
                             "uses seed i")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    scratch = tempfile.mkdtemp(prefix="repro-ab-")
    base_tree = os.path.join(scratch, f"base-{sha[:12]}")
    git("worktree", "add", "--detach", base_tree, sha)
    trees = {"base": base_tree, "change": ROOT}
    runs = {w: [] for w in args.workloads}
    started = time.monotonic()
    try:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in args.workloads:
                result = {}
                for side in order:
                    result[side] = run_bench(trees[side], workload, pair,
                                             seconds)
                runs[workload].append(result)
                print(f"pair {pair + 1}/{args.pairs} {workload} done "
                      f"({time.monotonic() - started:.0f} s)",
                      file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"base {sha[:12]} vs working tree: {args.pairs} interleaved "
          f"pairs, {seconds:g} s per run")
    print_table(summarize(spec, runs), runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
