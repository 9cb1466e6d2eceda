"""Differential validation: the octagon against the APRON-style baseline.

The optimised :class:`~repro.core.Octagon` is differentially tested
against the scalar :class:`~repro.core.apron_octagon.ApronOctagon` at
the operator level (``tests/test_octagon_vs_apron.py``), but the
property users actually rely on is end-to-end: *the same program
analyses to the same verdicts and the same bounds whichever
implementation ran it*.  This module makes that property a
first-class, runnable mode (``python -m repro batch --cross-validate``):
every job is executed twice -- once per domain -- and the results are
compared field by field.

Comparison is exact, not approximate: verdict lists must be equal,
per-procedure reachability must agree and every interval endpoint must
be *identical*; any drift is a bug, not noise.

Caches are deliberately bypassed: a differential run must measure what
the code computes today, and both executions happen in-process so the
per-job counters are collected under identical conditions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from .job import AnalysisJob, JobResult, execute_job

OCTAGON_DOMAIN = "octagon"
APRON_DOMAIN = "apron"


@dataclass
class ProgramValidation:
    """Outcome of one program's octagon-vs-apron comparison."""

    label: str
    octagon: JobResult
    apron: JobResult
    #: Human-readable descriptions of every disagreement (empty = match).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "mismatches": list(self.mismatches),
            "octagon_seconds": self.octagon.seconds,
            "apron_seconds": self.apron.seconds,
        }


@dataclass
class CrossValidationReport:
    """All programs' comparisons plus rollups."""

    programs: List[ProgramValidation]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.programs)

    @property
    def failures(self) -> List[ProgramValidation]:
        return [p for p in self.programs if not p.ok]

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "programs": [p.to_dict() for p in self.programs],
        }


def compare_results(dense: JobResult, sparse: JobResult) -> List[str]:
    """Field-by-field comparison; returns disagreement descriptions."""
    mismatches: List[str] = []
    if dense.outcome != sparse.outcome:
        mismatches.append(
            f"outcome: dense={dense.outcome} sparse={sparse.outcome}")
        return mismatches  # downstream fields are incomparable
    if dense.verdicts() != sparse.verdicts():
        dv, sv = dense.verdicts(), sparse.verdicts()
        for d, s in zip(dv, sv):
            if d != s:
                mismatches.append(f"verdict: dense={d} sparse={s}")
        if len(dv) != len(sv):
            mismatches.append(
                f"verdict count: dense={len(dv)} sparse={len(sv)}")
    dprocs = {p.name: p for p in dense.procedures}
    sprocs = {p.name: p for p in sparse.procedures}
    if sorted(dprocs) != sorted(sprocs):
        mismatches.append(
            f"procedures: dense={sorted(dprocs)} sparse={sorted(sprocs)}")
        return mismatches
    for name, dp in dprocs.items():
        sp = sprocs[name]
        if dp.reachable != sp.reachable:
            mismatches.append(
                f"{name}: reachable dense={dp.reachable} "
                f"sparse={sp.reachable}")
            continue
        if dp.box != sp.box:
            for i, (db, sb) in enumerate(zip(dp.box, sp.box)):
                if db != sb:
                    var = (dp.variables[i]
                           if i < len(dp.variables) else f"v{i}")
                    mismatches.append(
                        f"{name}.{var}: bounds dense={db} sparse={sb}")
    return mismatches


def validate_job(job: AnalysisJob) -> ProgramValidation:
    """Run one program under both domains and compare.

    The job's own ``domain`` is ignored -- the comparison is always
    octagon vs apron, with every other option (widening, budgets)
    taken from the job unchanged so both runs see the identical
    configuration.
    """
    octagon = execute_job(dataclasses.replace(job, domain=OCTAGON_DOMAIN))
    apron = execute_job(dataclasses.replace(job, domain=APRON_DOMAIN))
    return ProgramValidation(
        label=job.label or job.key()[:12],
        octagon=octagon,
        apron=apron,
        mismatches=compare_results(octagon, apron),
    )


def cross_validate(jobs: List[AnalysisJob]) -> CrossValidationReport:
    """Differentially validate every job; see :func:`validate_job`."""
    return CrossValidationReport([validate_job(job) for job in jobs])


__all__ = [
    "APRON_DOMAIN",
    "CrossValidationReport",
    "OCTAGON_DOMAIN",
    "ProgramValidation",
    "compare_results",
    "cross_validate",
    "validate_job",
]
