"""DBM integrity sentinel: opt-in paranoid validation of octagons.

The optimised octagon maintains several redundant structures whose
silent corruption would not crash anything -- it would just make the
analysis *wrong*: the coherence mirror (``m[i, j] == m[j^1, i^1]``),
the finite-entry count ``nni``, the independent-component partition
(a closed octagon keeps its unary-bounded variables in one block), the
``closed`` flag and the versioned closed-form cache riding on the COW
layer.  A single flipped cell (cosmic ray, buffer bug, a kernel
writing through a shared COW matrix) yields plausible-looking but
unsound invariants.

Paranoid mode re-validates those invariants after every mutating
octagon operation.  It is enabled by ``REPRO_PARANOID=1`` in the
environment (read at import, so forked and spawned workers inherit
it) or ``--paranoid`` on the CLI, and costs a full structural audit
per operation -- O(n^3) when a ``closed`` claim must be certified --
so it is strictly a debugging/CI mode, never the default.

Violations raise :class:`repro.errors.IntegrityError` naming the
broken invariant; every completed audit bumps the
``paranoid_checks`` stats counter.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import IntegrityError
from ..obs import metrics
from . import stats

#: Slack for the closed-claim certification: the decomposed/sparse/
#: dense kernels and the strengthening step may order float additions
#: differently, so "no triple tightens" is checked up to this epsilon.
_CLOSURE_TOL = 1e-6

_CHECKS = 0

stats.register_counter_source(lambda: {"paranoid_checks": _CHECKS})

metrics.REGISTRY.counter("paranoid_checks",
                         "DBM integrity audits run by the sentinel")
metrics.REGISTRY.counter("integrity_failures",
                         "Structural invariant breaches detected")

_ENABLED = os.environ.get("REPRO_PARANOID", "") not in ("", "0")


def set_paranoid(flag: bool) -> bool:
    """Enable/disable paranoid mode; returns the previous setting.

    Also mirrors the flag into ``REPRO_PARANOID`` so worker processes
    spawned after the call inherit it.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    if flag:
        os.environ["REPRO_PARANOID"] = "1"
    else:
        os.environ.pop("REPRO_PARANOID", None)
    return previous


def paranoid_enabled() -> bool:
    return _ENABLED


def _fail(check: str, detail: str) -> None:
    stats.bump("integrity_failures")
    raise IntegrityError(check, detail)


def validate_octagon(oct_) -> None:
    """Audit every structural invariant of one octagon; raise on breach."""
    global _CHECKS
    _CHECKS += 1

    m = oct_.mat
    n = oct_.n
    if m.ndim != 2 or m.shape != (2 * n, 2 * n):
        _fail("shape", f"matrix shape {m.shape} for n={n}")

    diag = np.diagonal(m)
    if not np.all(diag == 0.0):
        bad = int(np.nonzero(diag != 0.0)[0][0])
        _fail("diagonal", f"diagonal entry [{bad},{bad}] = {diag[bad]!r}")

    # Coherence: m[i, j] == m[j^1, i^1].  With idx = arange ^ 1 the
    # permuted matrix P = m[idx][:, idx] satisfies P.T[i, j] = m[j^1, i^1].
    idx = np.arange(2 * n) ^ 1
    mirror = m[np.ix_(idx, idx)].T
    if not np.array_equal(m, mirror):
        i, j = map(int, np.argwhere(m != mirror)[0])
        _fail("coherence",
              f"m[{i},{j}]={m[i, j]!r} but m[{j ^ 1},{i ^ 1}]={m[j ^ 1, i ^ 1]!r}")

    from .densemat import count_nni

    nni = count_nni(m)
    if oct_.nni != nni:
        _fail("nni", f"maintained nni={oct_.nni}, matrix has {nni}")

    # The maintained partition must over-approximate the exact one.
    if oct_.policy.decompose and not oct_.partition.is_empty():
        from .partition import Partition

        exact = Partition.from_matrix(m)
        if not oct_.partition.overapproximates(exact):
            _fail("partition",
                  f"maintained {oct_.partition!r} does not cover exact "
                  f"{exact!r}")

    if oct_.closed and not oct_._bottom:
        if oct_.policy.decompose:
            _check_unary_block(oct_.partition, m, n)
        _certify_closed(m, n)

    _validate_closure_cache(oct_)


def _check_unary_block(partition, m: np.ndarray, n: int) -> None:
    """A closed octagon keeps every variable with a finite unary bound
    in one block: strengthening relates each such pair, and the
    closed-form ``assign_var`` relies on it instead of a diagonal scan.
    Reads the diagonal of ``m`` itself, never a closure."""
    idx = np.arange(2 * n)
    unary = np.isfinite(m[idx, idx ^ 1]).reshape(n, 2).any(axis=1)
    bounded = np.nonzero(unary)[0].tolist()
    if partition.merge_blocks_containing(bounded) != partition:
        _fail("unary-block",
              f"variables with unary bounds {bounded} are not in one block "
              f"of {partition!r}")


def _certify_closed(m: np.ndarray, n: int) -> None:
    """A matrix claiming closure must be a min-plus + strengthen fixpoint."""
    dim = 2 * n
    for k in range(dim):
        relaxed = m[:, k, None] + m[None, k, :]
        if not np.all(m <= relaxed + _CLOSURE_TOL):
            i, j = map(int, np.argwhere(m > relaxed + _CLOSURE_TOL)[0])
            _fail("closed",
                  f"triple ({i},{k},{j}) tightens a 'closed' DBM: "
                  f"{m[i, j]!r} > {m[i, k]!r} + {m[k, j]!r}")
    # Strengthening: m[i, j] <= (m[i, i^1] + m[j^1, j]) / 2.
    idx = np.arange(dim) ^ 1
    unary = m[np.arange(dim), idx]
    bound = (unary[:, None] + unary[None, idx]) / 2.0
    with np.errstate(invalid="ignore"):
        violation = m > bound + _CLOSURE_TOL
    violation &= np.isfinite(bound)
    if np.any(violation):
        i, j = map(int, np.argwhere(violation)[0])
        _fail("strengthen",
              f"'closed' DBM not strengthened at ({i},{j}): "
              f"{m[i, j]!r} > {bound[i, j]!r}")


def _validate_closure_cache(oct_) -> None:
    """The versioned closed-form cache must describe *this* matrix."""
    cc = oct_._ccache
    if cc is None:
        return
    if oct_._ccache_version != oct_._cow.version:
        return  # stale stamp: the cache is dead, never served
    if cc.n != oct_.n:
        _fail("closure-cache", f"cached closure has n={cc.n}, octagon n={oct_.n}")
    if not (cc.closed or cc._bottom):
        _fail("closure-cache", "cached closure is neither closed nor bottom")
    # Closure only tightens: every cached entry is <= the source entry.
    if not cc._bottom and not np.all(cc.mat <= oct_.mat + _CLOSURE_TOL):
        i, j = map(int, np.argwhere(cc.mat > oct_.mat + _CLOSURE_TOL)[0])
        _fail("closure-cache",
              f"cached closure looser than source at ({i},{j}): "
              f"{cc.mat[i, j]!r} > {oct_.mat[i, j]!r}")


def check(oct_) -> None:
    """Hook called by mutating octagon operations; no-op unless paranoid."""
    if _ENABLED:
        validate_octagon(oct_)


__all__ = ["check", "paranoid_enabled", "set_paranoid", "validate_octagon"]
