"""The benchmark's own tests (small scale; about two minutes).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if len(line.split()) == 3}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert table[metric["name"]] == metric["unit"]
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0


def _planted(program, where):
    reference = json.loads(json.dumps(program["reference"]))
    if where == "verdict":
        reference["checks"][0][2] = not reference["checks"][0][2]
    else:
        box = next(p for p in reference["procedures"] if p["reachable"])
        box["box"][0][1] = -12345.0
    return dict(program, reference=reference)


@pytest.mark.parametrize("where", ["verdict", "box"])
def test_planted_wrong_answer_counts_as_failure(where):
    programs = [vars(p) for p in inputs.programs(1, ("DPS",), scale="small")]
    programs[0] = _planted(programs[0], where)
    out, tally = worker.oneshot(programs, 0.0, seed=1)
    analyses = 1 + worker.MIN_PASSES  # warm-up plus the timed passes
    assert tally.attempted == analyses * len(programs)
    assert tally.failed == analyses
    assert all(programs[0]["name"] in r for r in tally.reasons)


def test_serve_response_oracle_flags_planted_box():
    from repro.core.serialize import job_result_to_dict
    from repro.service.job import AnalysisJob, execute_job

    program = vars(inputs.programs(2, ("DIZY",), scale="small")[0])
    response = {"result": job_result_to_dict(
        execute_job(AnalysisJob(source=program["source"])))}
    assert oracle.failure(response["result"], program["reference"]) is None
    planted = _planted(program, "box")
    assert oracle.failure(response["result"], planted["reference"])


def test_no_op_markers_change_keys_not_answers():
    from repro.service.job import AnalysisJob, execute_job

    program = inputs.programs(3, ("DIZY",), scale="small")[0]
    procs = [name for name, _ in inputs.procedure_spans(program.source)]
    edited = inputs.with_markers(program.source, {procs[-1]: 7})
    assert edited != program.source
    result = execute_job(AnalysisJob(source=edited))
    assert oracle.job_failure(result, program.reference) is None


def test_default_seed_is_the_registered_suite():
    from repro.workloads.suite import BENCHMARKS

    pool = inputs.load_pool()["programs"]
    for bench in BENCHMARKS:
        assert inputs.choose_variant(pool[bench.name], bench.name,
                                     inputs.DEFAULT_SEED) == 0
        assert inputs.variant_source(bench, 0) == bench.source("paper")
        assert pool[bench.name]["matched"]
    assert inputs.variant_source(BENCHMARKS[0], 1) != BENCHMARKS[0].source(
        "paper")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("relational", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
