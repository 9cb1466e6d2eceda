"""Serialisation of octagons and analysis results.

Two formats:

* **JSON** (:func:`octagon_to_json` / :func:`octagon_from_json`) -- the
  octagon as its constraint system plus metadata. Human-readable,
  diff-friendly, portable across implementations (an ``ApronOctagon``
  can load a JSON produced from an ``Octagon`` and vice versa);
  infinite bounds never appear (trivial constraints are simply absent).
* **NPZ** (:func:`octagon_save_npz` / :func:`octagon_load_npz`) -- the
  raw DBM for bit-exact round trips of large octagons.

Plus :func:`analysis_report` for exporting an
:class:`~repro.analysis.analyzer.AnalysisResult` as a JSON document
(per-procedure exit boxes and check outcomes), which the CLI and
benchmark tooling can archive, and the batch-service result schema
(:func:`job_result_to_dict` / :func:`job_result_from_dict`) shared by
persistent cache entries and ``python -m repro batch --json`` output.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Type

import numpy as np

from .bounds import INF
from .constraints import OctConstraint
from .octagon import Octagon

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# JSON: constraint-system form
# ----------------------------------------------------------------------
def octagon_to_dict(oct_) -> Dict:
    """Serialise any octagon implementation to a plain dictionary."""
    if oct_.is_bottom():
        return {"version": FORMAT_VERSION, "n": oct_.n, "bottom": True,
                "constraints": []}
    constraints = [[c.i, c.coeff_i, c.j, c.coeff_j, c.bound]
                   for c in oct_.to_constraints()]
    return {"version": FORMAT_VERSION, "n": oct_.n, "bottom": False,
            "constraints": constraints}


def octagon_from_dict(raw: Dict, cls: Type = Octagon):
    """Rebuild an octagon (of class ``cls``) from its dictionary form."""
    if raw.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {raw.get('version')!r}")
    n = int(raw["n"])
    if raw.get("bottom"):
        return cls.bottom(n)
    constraints = [OctConstraint(int(i), int(ci), int(j), int(cj), float(b))
                   for i, ci, j, cj, b in raw["constraints"]]
    return cls.from_constraints(n, constraints)


def octagon_to_json(oct_) -> str:
    return json.dumps(octagon_to_dict(oct_))


def octagon_from_json(text: str, cls: Type = Octagon):
    return octagon_from_dict(json.loads(text), cls)


# ----------------------------------------------------------------------
# NPZ: raw-DBM form (bit-exact)
# ----------------------------------------------------------------------
def octagon_save_npz(oct_: Octagon, path: str) -> None:
    """Save the raw coherent DBM (``Octagon`` only)."""
    np.savez_compressed(path, mat=oct_.mat,
                        bottom=np.array([oct_.is_bottom()]),
                        closed=np.array([oct_.closed]))


def octagon_load_npz(path: str) -> Octagon:
    with np.load(path) as data:
        if bool(data["bottom"][0]):
            return Octagon.bottom(data["mat"].shape[0] // 2)
        oct_ = Octagon.from_matrix(data["mat"])
        if bool(data["closed"][0]):
            oct_.closed = True
        return oct_


# ----------------------------------------------------------------------
# analysis reports
# ----------------------------------------------------------------------
def _bound(value: float) -> Optional[float]:
    if value == INF or value == -INF:
        return None
    return float(value)


def analysis_report(result) -> Dict:
    """Export an AnalysisResult as a JSON-able report document."""
    procedures: List[Dict] = []
    for proc in result.procedures:
        state = proc.invariant_at_exit()
        if state.is_bottom():
            exit_box = None
        else:
            exit_box = {
                name: [_bound(lo), _bound(hi)]
                for name, (lo, hi) in zip(proc.cfg.variables, state.to_box())
            }
        procedures.append({
            "name": proc.name,
            "variables": list(proc.cfg.variables),
            "exit_reachable": exit_box is not None,
            "exit_box": exit_box,
            "checks": [{"condition": c.cond_text, "verified": c.verified}
                       for c in proc.checks],
        })
    total = len(result.checks)
    verified = sum(1 for c in result.checks if c.verified)
    return {
        "version": FORMAT_VERSION,
        "seconds": result.seconds,
        "checks_verified": verified,
        "checks_total": total,
        "procedures": procedures,
    }


# ----------------------------------------------------------------------
# batch-service job results
# ----------------------------------------------------------------------
#: Version of the JobResult wire schema (cache entries, ``--json``).
#: v2 added ``compile_transfer`` (whether the analysis ran compiled
#: transfer plans or the interpreted ablation path).  v3 added the
#: ``degraded`` outcome with its per-procedure ``rungs`` map and the
#: ``resumed`` journal flag.  v4 added the per-operator timing
#: decomposition (``op_seconds``/``op_self_seconds``/``op_calls``) and
#: histogram snapshots, so ``--json`` documents carry the Fig 8 time
#: split for every execution mode (``trace_events`` is deliberately
#: *not* serialised: spans ship over the worker pipe only).  v5 added
#: ``kernel_backend`` (the concrete kernel backend the worker computed
#: with -- a cache-key component, so the document must record it);
#: ``dbms`` stays wire-only, like ``trace_events``.
#: v6: job options (and therefore cache keys) gained the switching
#: threshold of a second, graph-based octagon backend.  v7 removed that
#: backend and the kernel backend choice: ``kernel_backend`` left the
#: document and both knobs left the job options, so v6 entries -- keyed
#: with them -- are evicted, never served.  v8: closures became rows
#: of the operator tables (``closure``, ``closure_inc``) and
#: ``octagon_seconds`` became the sum of ``op_self_seconds``.
JOB_RESULT_SCHEMA = 8


def job_result_to_dict(result) -> Dict:
    """Serialise a :class:`~repro.service.job.JobResult` to plain data.

    The inverse of :func:`job_result_from_dict`; the round trip is
    exact (``from_dict(to_dict(r)) == r``), which is what lets cache
    entries, ``--json`` reports and in-memory results share one schema.
    """
    return {
        "schema": JOB_RESULT_SCHEMA,
        "key": result.key,
        "label": result.label,
        "domain": result.domain,
        "outcome": result.outcome,
        "seconds": result.seconds,
        "octagon_seconds": result.octagon_seconds,
        "attempts": result.attempts,
        "compile_transfer": bool(result.compile_transfer),
        "error": result.error,
        "cached": result.cached,
        "checks": [[c.procedure, c.cond_text, bool(c.verified)]
                   for c in result.checks],
        "procedures": [{
            "name": p.name,
            "variables": list(p.variables),
            "reachable": bool(p.reachable),
            "box": [[lo, hi] for lo, hi in p.box],
        } for p in result.procedures],
        "counters": {str(k): int(v) for k, v in result.counters.items()},
        "op_seconds": {str(k): float(v)
                       for k, v in result.op_seconds.items()},
        "op_self_seconds": {str(k): float(v)
                            for k, v in result.op_self_seconds.items()},
        "op_calls": {str(k): int(v) for k, v in result.op_calls.items()},
        "histograms": {str(k): dict(v)
                       for k, v in result.histograms.items()},
        "rungs": {str(k): str(v) for k, v in result.rungs.items()},
        "resumed": result.resumed,
    }


def job_result_from_dict(raw: Dict):
    """Rebuild a :class:`~repro.service.job.JobResult` from its dict form."""
    from ..service.job import CheckVerdict, JobResult, ProcedureSummary

    if raw.get("schema") != JOB_RESULT_SCHEMA:
        raise ValueError(f"unsupported job-result schema {raw.get('schema')!r}")
    checks = [CheckVerdict(str(proc), str(cond), bool(ok))
              for proc, cond, ok in raw["checks"]]
    procedures = [ProcedureSummary(
        name=str(p["name"]),
        variables=[str(v) for v in p["variables"]],
        reachable=bool(p["reachable"]),
        box=[[None if lo is None else float(lo),
              None if hi is None else float(hi)] for lo, hi in p["box"]],
    ) for p in raw["procedures"]]
    return JobResult(
        key=str(raw["key"]),
        label=str(raw["label"]),
        domain=str(raw["domain"]),
        outcome=str(raw["outcome"]),
        seconds=float(raw["seconds"]),
        octagon_seconds=float(raw["octagon_seconds"]),
        attempts=int(raw["attempts"]),
        compile_transfer=bool(raw["compile_transfer"]),
        error=raw["error"],
        checks=checks,
        procedures=procedures,
        counters={str(k): int(v) for k, v in raw["counters"].items()},
        op_seconds={str(k): float(v)
                    for k, v in raw.get("op_seconds", {}).items()},
        op_self_seconds={str(k): float(v)
                         for k, v in raw.get("op_self_seconds", {}).items()},
        op_calls={str(k): int(v) for k, v in raw.get("op_calls", {}).items()},
        histograms={str(k): dict(v)
                    for k, v in raw.get("histograms", {}).items()},
        rungs={str(k): str(v) for k, v in raw.get("rungs", {}).items()},
        cached=bool(raw.get("cached", False)),
        resumed=bool(raw.get("resumed", False)),
    )


__all__ = [
    "FORMAT_VERSION",
    "JOB_RESULT_SCHEMA",
    "analysis_report",
    "job_result_from_dict",
    "job_result_to_dict",
    "octagon_from_dict",
    "octagon_from_json",
    "octagon_load_npz",
    "octagon_save_npz",
    "octagon_to_dict",
    "octagon_to_json",
]
