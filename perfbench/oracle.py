"""The verdict oracle: every answer must equal the apron-domain reference.

The ``apron`` domain is the repository's independent scalar octagon
implementation.  A reference is the per-check verdicts and the
per-procedure exit boxes, in the result-document schema shared by
``JobResult`` (via :func:`repro.core.serialize.job_result_to_dict`) and
serve responses.
"""

from __future__ import annotations

from typing import Dict, Optional


def verdicts(result: Dict) -> Dict:
    """The oracle-relevant part of a result document."""
    return {"checks": [list(c) for c in result["checks"]],
            "procedures": [{"name": p["name"],
                            "variables": list(p["variables"]),
                            "reachable": bool(p["reachable"]),
                            "box": [list(b) for b in p["box"]]}
                           for p in result["procedures"]]}


def job_verdicts(result) -> Dict:
    """:func:`verdicts` of an in-memory ``JobResult``."""
    from repro.core.serialize import job_result_to_dict

    return verdicts(job_result_to_dict(result))


def reference(source: str) -> Dict:
    """Compute the apron-domain reference for ``source`` (slow: the
    scalar implementation is the paper's baseline)."""
    from repro.service.job import AnalysisJob, execute_job

    result = execute_job(AnalysisJob(source=source, domain="apron"))
    if result.outcome != "ok":
        raise RuntimeError(f"apron reference did not complete: "
                           f"{result.outcome} {result.error}")
    return job_verdicts(result)


def failure(result: Dict, reference: Dict) -> Optional[str]:
    """Why a result document (a serve response's ``result``) fails the
    oracle; None when it passes."""
    if result["outcome"] != "ok":
        return f"{result['outcome']}: {result.get('error')}"
    if verdicts(result) != reference:
        return "verdicts or exit boxes differ from the apron reference"
    return None


def job_failure(result, reference: Dict) -> Optional[str]:
    """:func:`failure` of an in-memory ``JobResult``."""
    from repro.core.serialize import job_result_to_dict

    return failure(job_result_to_dict(result), reference)


class Tally:
    """Attempted and failed operations, with the first few reasons.

    A failure is an error, a timeout, an ``overloaded`` refusal or an
    answer that differs from the reference.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, name: str, reason=None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{name}: {reason}")
