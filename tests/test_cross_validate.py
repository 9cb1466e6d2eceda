"""The octagon-vs-apron differential validation mode itself.

The 17-program parity run is the CI step ``batch --suite
--cross-validate``, and ``test_octagon_vs_apron.py`` holds the parity
at the operation level; these tests exercise the *machinery*: that
:func:`compare_results` actually detects disagreements (a validator
that cannot fail validates nothing), that :func:`validate_job` pins
the two domains regardless of the job's own domain, and that the
report serialises for ``--json``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service.job import AnalysisJob
from repro.service.validate import (APRON_DOMAIN, OCTAGON_DOMAIN,
                                    compare_results, cross_validate,
                                    validate_job)

SOURCE = """
proc main {
  x = [0, 10];
  y = x + 1;
  assert(y <= 11);
}
"""


@pytest.fixture(scope="module")
def validation():
    job = AnalysisJob(source=SOURCE, label="tiny")
    return validate_job(job)


def test_matching_backends_produce_empty_mismatch_list(validation):
    assert validation.ok
    assert validation.mismatches == []
    assert validation.octagon.domain == OCTAGON_DOMAIN
    assert validation.apron.domain == APRON_DOMAIN


def test_job_domain_is_overridden_not_trusted():
    v = validate_job(AnalysisJob(source=SOURCE, label="t", domain="interval"))
    assert v.octagon.domain == OCTAGON_DOMAIN
    assert v.apron.domain == APRON_DOMAIN
    assert v.ok


def test_detects_verdict_mismatch(validation):
    broken = dataclasses.replace(
        validation.apron,
        checks=[dataclasses.replace(c, verified=not c.verified)
                for c in validation.apron.checks])
    mismatches = compare_results(validation.octagon, broken)
    assert mismatches and any("verdict" in m for m in mismatches)


def test_detects_bound_mismatch(validation):
    ap = validation.apron.procedures[0]
    skew = [[lo, (hi + 1 if hi is not None else None)] for lo, hi in ap.box]
    broken = dataclasses.replace(
        validation.apron,
        procedures=[dataclasses.replace(ap, box=skew)]
        + validation.apron.procedures[1:])
    mismatches = compare_results(validation.octagon, broken)
    assert mismatches and any("bounds" in m for m in mismatches)


def test_detects_outcome_mismatch(validation):
    broken = dataclasses.replace(validation.apron, outcome="error")
    mismatches = compare_results(validation.octagon, broken)
    assert mismatches == ["outcome: dense=ok sparse=error"]


def test_detects_reachability_mismatch(validation):
    ap = validation.apron.procedures[0]
    broken = dataclasses.replace(
        validation.apron,
        procedures=[dataclasses.replace(ap, reachable=not ap.reachable)]
        + validation.apron.procedures[1:])
    mismatches = compare_results(validation.octagon, broken)
    assert mismatches and any("reachable" in m for m in mismatches)


def test_report_rollup_and_serialisation(validation):
    report = cross_validate([AnalysisJob(source=SOURCE, label="tiny")])
    assert report.ok and not report.failures
    doc = report.to_dict()
    assert doc["ok"] is True
    (prog,) = doc["programs"]
    assert prog["label"] == "tiny"
    assert prog["ok"] is True
    assert prog["mismatches"] == []
    assert prog["octagon_seconds"] > 0
    assert prog["apron_seconds"] > 0


def test_counters_collected_per_backend(validation):
    # both runs executed in-process with fresh collectors: the octagon
    # run must not leak its counters into the apron run's (the scalar
    # baseline charges no closure cells of its own)
    assert validation.octagon.counters["closure_cells"] > 0
    assert validation.octagon.counters["kernel_calls"] > 0
    assert validation.apron.counters.get("closure_cells", 0) == 0
    assert validation.octagon.counters["fixpoint_runs"] == 1
    assert validation.apron.counters["fixpoint_runs"] == 1
