"""The import-graph contract behind the analyzer's cold start.

The default one-shot octagon path must not load the subsystems it never
runs (scipy, the APRON baseline and the other domains, the backward
analysis, cross-validation, the report renderer, the benchmark-suite
registry); every name those packages re-export must still resolve on
first use.  What the path does run -- the closure kernels included --
loads with ``repro.service.job``, before batch and serve workers fork.
Each check runs in a fresh interpreter, since the test session itself
has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules the default one-shot path must leave unloaded.
OFF_PATH = (
    "scipy",
    "repro.analysis.backward",
    "repro.core.apron_octagon",
    "repro.domains.zone",
    "repro.domains.pentagon",
    "repro.service.validate",
    "repro.obs.report",
    "repro.workloads",
    "repro.serve",
    "repro.service.pool",
)

#: Modules ``repro.service.job`` must load up front, so forked workers
#: never compile them again.
ON_PATH = (
    "repro.core.closure_incremental",
    "repro.core.closure_dense",
    "repro.core.closure_sparse",
    "repro.core.closure_apron",
)

SOURCE = """\
proc f {
  x = [0, 4];
  y = x + 1;
  i = 0;
  while (i < 9) { i = i + 1; }
  assert(y <= 5);
  assert(i >= 9);
}
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_default_job_leaves_unused_subsystems_unloaded():
    code = f"""
import json, sys
import repro.service.job as job
result = job.execute_job(job.AnalysisJob(source={SOURCE!r}))
assert result.outcome == "ok", result.outcome
print(json.dumps([m for m in {OFF_PATH!r} if m in sys.modules]))
"""
    assert json.loads(_run(code)) == []


def test_job_module_loads_the_closure_kernels():
    code = f"""
import json, sys
import repro.service.job
print(json.dumps([m for m in {ON_PATH!r} if m not in sys.modules]))
"""
    assert json.loads(_run(code)) == []


def test_analyze_cli_never_imports_scipy(tmp_path):
    path = tmp_path / "p.mini"
    path.write_text(SOURCE)
    code = f"""
import atexit, runpy, sys
atexit.register(lambda: print("scipy" in sys.modules))
sys.argv = ["repro", "analyze", {str(path)!r}]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""
    assert _run(code) == "False"


def test_lazy_names_resolve():
    code = """
from repro import ApronOctagon
from repro.core import ApronOctagon as CoreApron
from repro.analysis import (BackwardEngine, BackwardResult,
                            necessary_precondition)
from repro.domains import Pentagon, Zone
from repro.service import (CrossValidationReport, ProgramValidation,
                           cross_validate, run_batch, run_suite, suite_jobs)
from repro.obs import report
import repro.analysis.backward as backward_mod
import repro.core.apron_octagon as apron_mod
import repro.service.validate as validate_mod
assert ApronOctagon is CoreApron is apron_mod.ApronOctagon
assert BackwardEngine is backward_mod.BackwardEngine
assert BackwardResult is backward_mod.BackwardResult
assert necessary_precondition is backward_mod.necessary_precondition
assert cross_validate is validate_mod.cross_validate
assert len(suite_jobs(scale="small")) == 17 and callable(run_suite)
assert callable(run_batch) and callable(report.render_report)
assert Pentagon.__name__ == "Pentagon" and Zone.__name__ == "Zone"
assert CrossValidationReport.__name__ and ProgramValidation.__name__
print("ok")
"""
    assert _run(code) == "ok"


def test_unknown_lazy_name_is_attribute_error():
    import repro.core
    import repro.obs

    with pytest.raises(AttributeError):
        repro.core.NoSuchThing  # noqa: B018
    with pytest.raises(ImportError):
        from repro.obs import no_such_module  # noqa: F401


def test_get_domain_imports_only_the_requested_domain():
    code = """
import json, sys
from repro.domains.domain import get_domain
loaded = {}
others = {"repro.domains.zone", "repro.domains.pentagon",
          "repro.core.apron_octagon"}
for name in ["interval", "zone", "pentagon", "apron", "octagon"]:
    before = others & set(sys.modules)
    factory = get_domain(name)
    assert factory is get_domain(name)
    state = factory.top(2).meet(factory.from_box([(0.0, 1.0), (2.0, 3.0)]))
    assert state.bounds(1) == (2.0, 3.0), (name, state.bounds(1))
    loaded[name] = sorted((others & set(sys.modules)) - before)
print(json.dumps(loaded))
"""
    assert json.loads(_run(code)) == {
        "interval": [],
        "zone": ["repro.domains.zone"],
        "pentagon": ["repro.domains.pentagon"],
        "apron": ["repro.core.apron_octagon"],
        "octagon": [],
    }


def test_get_domain_unknown_name():
    from repro.domains import get_domain

    with pytest.raises(KeyError, match="pentagon"):
        get_domain("polyhedra")
