"""The strengthening step of octagon closure (paper Algorithm 1, lines 9-11).

Shortest-path closure alone does not produce the canonical octagon
form: unary constraints must additionally be combined pairwise,

    O[i, j] = min(O[i, j], (O[i, i^1] + O[j^1, j]) / 2)

because ``vhat_{i^1} = -vhat_i`` turns the two "diagonal" entries into
a bound on ``vhat_j - vhat_i``.  The diagonal operands do not change
during the step, so the paper buffers them in a contiguous array --
which both fixes the strided access pattern and enables vectorisation.
The NumPy variants below follow the same structure: gather the diagonal
into a vector ``d`` with ``d[i] = O[i, i^1]``, then perform one
vectorised rank-1-style update.

This module provides scalar (instrumented) and vectorised variants for
both matrix layouts, plus emptiness detection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .halfmat import HalfMat
from .indexing import cap, matpos
from .stats import OpCounter
from .workspace import get_workspace


def strengthen_scalar(m: HalfMat, counter: Optional[OpCounter] = None) -> None:
    """Strengthening on the half representation, pure Python.

    Faithful to APRON: one pass over the stored half, three operations
    (add, halve, compare) per entry.  The diagonal operands are
    buffered first, as in the paper.
    """
    dim = 2 * m.n
    data = m.data
    diag = [data[matpos(i, i ^ 1)] for i in range(dim)]
    ticks = 0
    for i in range(dim):
        di = diag[i]
        base = (i + 1) * (i + 1) // 2
        for j in range(cap(i) + 1):
            ticks += 1
            cand = (di + diag[j ^ 1]) / 2.0
            if cand < data[base + j]:
                data[base + j] = cand
    if counter is not None:
        counter.tick(3 * ticks)  # add + halve + compare per entry


def strengthen_numpy(m: np.ndarray) -> None:
    """Vectorised strengthening on a full coherent DBM (in place)."""
    dim = m.shape[0]
    if dim == 0:
        return
    ws = get_workspace(dim)
    d = m[ws.arange, ws.xor]  # d[i] = O[i, i^1]
    # O[i, j] <- min(O[i, j], (d[i] + d[j^1]) / 2); inf operands stay inf.
    t = ws.scratch
    np.add(d[:, None], d[ws.xor][None, :], out=t)
    t *= 0.5
    np.minimum(m, t, out=m)


def strengthen_sparse_numpy(m: np.ndarray) -> int:
    """Strengthening restricted to finite diagonal operands.

    Mirrors the paper's sparse strengthening: build the index of finite
    diagonal entries and only touch rows/columns in that index.
    Returns the number of candidate updates performed (for op-count
    reporting).
    """
    dim = m.shape[0]
    ws = get_workspace(dim)
    d = m[ws.arange, ws.xor]
    finite = np.nonzero(np.isfinite(d))[0]
    if finite.size == 0:
        return 0
    rows = finite  # need d[i] finite
    cols = finite ^ 1  # need d[j^1] finite, i.e. j in finite^1
    sub = m[np.ix_(rows, cols)]
    cand = (d[rows][:, None] + d[rows][None, :]) * 0.5
    np.minimum(sub, cand, out=sub)
    m[np.ix_(rows, cols)] = sub
    return int(rows.size) * int(cols.size)


def is_bottom_numpy(m: np.ndarray) -> bool:
    """Emptiness: the closed DBM has a negative diagonal entry."""
    return bool((np.diagonal(m) < 0.0).any())


def is_bottom_half(m: HalfMat) -> bool:
    """Emptiness test for the half representation."""
    data = m.data
    return any(data[matpos(i, i)] < 0.0 for i in range(2 * m.n))


def reset_diagonal_numpy(m: np.ndarray) -> None:
    """Restore the zero diagonal after a non-bottom closure."""
    np.fill_diagonal(m, 0.0)


def reset_diagonal_half(m: HalfMat) -> None:
    data = m.data
    for i in range(2 * m.n):
        data[matpos(i, i)] = 0.0
