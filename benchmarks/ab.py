"""Interleaved A/B of the repository benchmark: a base commit against the
working tree.

Usage (from anywhere inside the repository)::

    python3 benchmarks/ab.py --base HEAD~1
    python3 benchmarks/ab.py --base main --pairs 8 --workloads procedural
    python3 benchmarks/ab.py --base HEAD~1 --record BENCH_trajectory.json

The base commit is exported with ``git archive`` into a fresh temporary
directory, removed again at the end.  The change is the working tree
this script lives in, committed or not.

Pair ``i`` runs ``perfbench/run.py --seed i --trace 0`` once on base and
once on change for every workload, each in its own tree and for
``BENCHMARK.json``'s ``run_seconds``; even pairs run base first, odd
pairs change first, so host drift does not favour one side.  For every
end-to-end metric of ``BENCHMARK.json`` the script prints, per workload,
the median and interquartile range (IQR) of each side, the median change
in percent, the number of pairs the change won (ties count for neither
side) and a verdict:

* ``gain`` -- the change won at least nine tenths of the pairs, its
  median beats the base median by more than the base IQR and it failed
  no more answers than the base;
* ``worse`` -- the change median is worse than the base median by more
  than the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the
  base median);
* ``unresolved`` -- the change is not ``worse`` but reported more
  failed answers than the base on that workload, so a faster or smaller
  run may just be doing less; or either side's IQR exceeds the bound
  (as a fraction of its median), so the spread cannot tell a regression
  from noise, unless every change run beats every base run;
* ``no worse`` -- otherwise.

A run that reports a failed answer is counted and shown.  ``--record
FILE`` appends the run (base and change commits, pairs, and per workload
and metric the medians, IQRs, wins, verdict and failed counts) to the
JSON list in ``FILE``.

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


def verdict(base: list, change: list, wins: int, lower: bool,
            bound: float, failed: dict) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``no worse`` (see above);
    ``failed`` holds each side's failed-answer count."""
    sign = 1.0 if lower else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    if failed["change"] > failed["base"]:
        return "unresolved"
    if 10 * wins >= 9 * len(base) and sign * (b_med - c_med) > iqr(base):
        return "gain"
    spread = max(iqr(base) / abs(b_med) if b_med else 0.0,
                 iqr(change) / abs(c_med) if c_med else 0.0)
    if spread > bound and not (max(sign * c for c in change)
                               < min(sign * b for b in base)):
        return "unresolved"
    return "no worse"


def summarize(spec: dict, runs: dict) -> list:
    """Rows of (workload, metric, unit, base median, base IQR, change
    median, change IQR, delta %, wins, pairs, verdict)."""
    rows = []
    failed = failed_counts(runs)
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
                         c_med, iqr(change), delta, wins, len(pairs),
                         verdict(base, change, wins, lower,
                                 metric["bound"], failed[workload])))
    return rows


def failed_counts(runs: dict) -> dict:
    return {workload: {side: sum(p[side]["failed"] for p in pairs)
                       for side in ("base", "change")}
            for workload, pairs in runs.items()}


def print_table(rows: list, runs: dict) -> None:
    print(f"{'workload':13s} {'metric':19s} {'base median':>12s} "
          f"{'IQR':>9s} {'change median':>14s} {'IQR':>9s} {'delta':>8s} "
          f"{'wins':>6s}  verdict")
    for (workload, name, unit, b_med, b_iqr, c_med, c_iqr, delta, wins,
         pairs, verdict_) in rows:
        print(f"{workload:13s} {name:19s} {b_med:12.4g} {b_iqr:9.3g} "
              f"{c_med:14.4g} {c_iqr:9.3g} {delta:+7.1f}% {wins:>3d}/{pairs}"
              f"  {verdict_} ({unit})")
    for workload, failed in failed_counts(runs).items():
        print(f"{workload}: failed answers base={failed['base']} "
              f"change={failed['change']}")


def record(path: str, base_sha: str, pairs: int, seconds: float,
           rows: list, runs: dict) -> None:
    """Append this run to the JSON list in ``path``."""
    status = git("status", "--porcelain", "--untracked-files=no")
    entry = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "base": base_sha,
        "change": git("rev-parse", "HEAD") + ("+dirty" if status else ""),
        "pairs": pairs,
        "run_seconds": seconds,
        "workloads": {w: {"failed": f, "metrics": {}}
                      for w, f in failed_counts(runs).items()},
    }
    for (workload, name, unit, b_med, b_iqr, c_med, c_iqr, delta, wins,
         _, verdict_) in rows:
        entry["workloads"][workload]["metrics"][name] = {
            "unit": unit, "base_median": b_med, "base_iqr": b_iqr,
            "change_median": c_med, "change_iqr": c_iqr,
            "delta_pct": round(delta, 2), "wins": wins,
            "verdict": verdict_}
    history = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.append(entry)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")


def export(sha: str, tree: str) -> None:
    """Write the files of commit ``sha`` into the new directory ``tree``."""
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} exited {archive.returncode}")


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
    parser.add_argument("--record", metavar="FILE",
                        help="append the run to this JSON trajectory file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    scratch = tempfile.mkdtemp(prefix="repro-ab-")
    base_tree = os.path.join(scratch, f"base-{sha[:12]}")
    trees = {"base": base_tree, "change": ROOT}
    runs = {w: [] for w in args.workloads}
    started = time.monotonic()
    try:
        export(sha, base_tree)
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
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"base {sha[:12]} vs working tree: {args.pairs} interleaved "
          f"pairs, {seconds:g} s per run")
    rows = summarize(spec, runs)
    print_table(rows, runs)
    if args.record:
        record(args.record, sha, args.pairs, seconds, rows, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
