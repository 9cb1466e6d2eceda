"""The import-graph contract behind the analyzer's cold start.

The default one-shot octagon path must not load the subsystems it never
runs (scipy, the other octagon backends and domains, cross-validation,
the report renderer, the benchmark-suite registry); every name those packages re-export must still
resolve on first use.  Each check runs in a fresh interpreter, since the
test session itself has long since imported everything.
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
    "repro.domains.sparse_octagon",
    "repro.core.apron_octagon",
    "repro.domains.zone",
    "repro.domains.pentagon",
    "repro.service.validate",
    "repro.obs.report",
    "repro.workloads",
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
from repro.domains import (ConfiguredSparseOctagonFactory, Pentagon,
                           SparseOctagon, Zone)
from repro.service import (CrossValidationReport, ProgramValidation,
                           cross_validate, run_batch, run_suite, suite_jobs)
from repro.obs import report
import repro.core.apron_octagon as apron_mod
import repro.domains.sparse_octagon as sparse_mod
import repro.service.validate as validate_mod
assert ApronOctagon is CoreApron is apron_mod.ApronOctagon
assert SparseOctagon is sparse_mod.SparseOctagon
assert ConfiguredSparseOctagonFactory is sparse_mod.ConfiguredSparseOctagonFactory
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
          "repro.core.apron_octagon", "repro.domains.sparse_octagon"}
for name in ["interval", "zone", "pentagon", "apron", "sparse-octagon",
             "octagon"]:
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
        "sparse-octagon": ["repro.domains.sparse_octagon"],
        "octagon": [],
    }


def test_get_domain_unknown_name():
    from repro.domains import get_domain

    with pytest.raises(KeyError, match="sparse-octagon"):
        get_domain("polyhedra")
