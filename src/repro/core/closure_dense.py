"""The new dense closure (paper Algorithm 3 + section 5.2 optimisations).

APRON's half-matrix closure (Algorithm 2) performs two candidate mins
per stored entry for *each of the 2n* outer iterations because of the
asymmetry of the coherent DBM.  The paper's key observation: run the
``2k`` and ``2k+1`` pivot iterations *together*.  First bring the
``2k``/``2k+1`` rows and columns up to date (possible with one min per
entry, using only lower-triangle operands), then every remaining entry
can be updated with its two candidate mins in any order -- enabling
vectorisation -- for a total of ``8n^3 + O(n^2)`` operations, half of
Algorithm 2.

Two implementations:

* :func:`closure_dense_scalar` -- pure-Python transcription of
  Algorithm 3 on the half representation, instrumented so tests can
  verify the operation-count halving against
  :func:`dense_closure_op_count`.
* :func:`closure_dense_numpy` -- the production closure: the fastest
  vectorised formulation in NumPy (paired-pivot full-coherent sweep
  with a preallocated scratch buffer); see its docstring and
  EXPERIMENTS.md for the measured trade-off.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from . import workspace as _workspace
from .halfmat import HalfMat
from .indexing import cap, matpos2
from .stats import OpCounter
from .workspace import get_workspace
from .strengthen import (
    is_bottom_half,
    is_bottom_numpy,
    reset_diagonal_half,
    reset_diagonal_numpy,
    strengthen_scalar,
)


def dense_closure_op_count(n: int) -> int:
    """Operation count of our Algorithm 3 transcription.

    Per fused iteration ``k``: 4n pivot-line entries at one min each
    (2 ops) and ``2n^2 - 2n`` remaining entries at two mins each
    (4 ops), so ``8n^2`` ops; ``n`` iterations give ``8n^3``.
    Strengthening adds 3 ops per stored entry: ``6n^2 + 6n``.  Total
    ``8n^3 + 6n^2 + 6n`` -- the paper reports ``8n^3 + 10n^2 + 2n``
    (the small constant-order difference comes from how the pivot-line
    pass is accounted; the halving of the ``16n^3`` leading term is
    exact).
    """
    return 8 * n ** 3 + 6 * n ** 2 + 6 * n


# ----------------------------------------------------------------------
# scalar (instrumented) variant
# ----------------------------------------------------------------------
def shortest_path_dense_scalar(m: HalfMat, counter: Optional[OpCounter] = None) -> None:
    """Algorithm 3 shortest-path step on the half DBM, pure Python."""
    n = m.n
    dim = 2 * n
    data = m.data
    ticks = 0
    for k in range(n):
        p0, p1 = 2 * k, 2 * k + 1
        base0 = (p0 + 1) * (p0 + 1) // 2
        base1 = (p1 + 1) * (p1 + 1) // 2
        # --- pivot lines first: one min per entry -----------------------
        # Phase 1 = pivot p0 applied to the p1 lines.  The stored row p1
        # holds columns 0..p1; its coherent continuation (columns > p1)
        # is the stored column p0, so both loops together realise
        # "update row p1" of the virtual full matrix.
        w10 = data[base1 + p0]  # O[p1, p0]
        for j in range(p1 + 1):  # row p1: O[p1,j] ^= O[p1,p0] + O[p0,j]
            ticks += 1
            cand = w10 + data[matpos2(p0, j)]
            p = base1 + j
            if cand < data[p]:
                data[p] = cand
        for i in range(p1 + 1, dim):  # col p0: O[i,p0] ^= O[p1,p0] + O[i,p1]
            ticks += 1
            basei = (i + 1) * (i + 1) // 2
            cand = w10 + data[basei + p1]
            p = basei + p0
            if cand < data[p]:
                data[p] = cand
        # Phase 2 = pivot p1 applied to the p0 lines, using phase-1 results.
        w01 = data[base0 + p1]  # O[p0, p1]
        for j in range(p1 + 1):  # row p0: O[p0,j] ^= O[p0,p1] + O[p1,j]
            ticks += 1
            cand = w01 + data[matpos2(p1, j)]
            p = base0 + j
            if cand < data[p]:
                data[p] = cand
        for i in range(p1 + 1, dim):  # col p1: O[i,p1] ^= O[p0,p1] + O[i,p0]
            ticks += 1
            basei = (i + 1) * (i + 1) // 2
            cand = w01 + data[basei + p0]
            p = basei + p1
            if cand < data[p]:
                data[p] = cand
        # --- bulk: two mins per remaining entry, any order --------------
        for i in range(dim):
            if i == p0 or i == p1:
                continue
            basei = (i + 1) * (i + 1) // 2
            oip0 = data[matpos2(i, p0)]
            oip1 = data[matpos2(i, p1)]
            for j in range(cap(i) + 1):
                if j == p0 or j == p1:
                    continue
                ticks += 2
                p = basei + j
                cand = oip0 + data[matpos2(p0, j)]
                if cand < data[p]:
                    data[p] = cand
                cand = oip1 + data[matpos2(p1, j)]
                if cand < data[p]:
                    data[p] = cand
    if counter is not None:
        counter.tick(2 * ticks)


def closure_dense_scalar(m: HalfMat, counter: Optional[OpCounter] = None) -> bool:
    """Algorithm 3 + strengthening, scalar.  Returns True iff bottom."""
    shortest_path_dense_scalar(m, counter)
    strengthen_scalar(m, counter)
    if is_bottom_half(m):
        return True
    reset_diagonal_half(m)
    return False


# Legacy scratch cache, used only when the workspace registry is off:
# the pre-workspace code cached its scratch buffers too, so baseline
# measurements with ``workspace.disabled()`` must not be slower than
# the code they model.
_SCRATCH: Dict[int, np.ndarray] = {}


def _scratch(dim: int) -> np.ndarray:
    if _workspace.is_enabled():
        return get_workspace(dim).scratch
    buf = _SCRATCH.get(dim)
    if buf is None:
        buf = np.empty((dim, dim), dtype=np.float64)
        _SCRATCH[dim] = buf
    return buf


def closure_dense_numpy(m: np.ndarray, counter: Optional[OpCounter] = None) -> bool:
    """Production dense closure on a full coherent DBM (in place).

    One vectorised min-plus rank-1 update per pivot, pivots processed
    in paired order (``2k`` then ``2k+1``, preserving coherence),
    followed by vectorised strengthening with the buffered unary
    diagonal.  Returns True iff the octagon is empty.

    A note on the paper's operation-count halving: Algorithm 3 performs
    half the candidate evaluations of this sweep (see
    :func:`closure_dense_scalar`, whose instrumented count verifies the
    claim exactly).  The paper's AVX
    kernels are compute-bound, so halving operations halves time; NumPy
    element-wise kernels are *memory-bound* and the packed half-matrix
    layout pays more in gather/scatter than it saves in arithmetic, so
    the full coherent sweep is the fastest vectorised formulation here
    (measured in EXPERIMENTS.md).
    """
    dim = m.shape[0]
    if dim == 0:
        return False
    t = _scratch(dim)
    for p in range(dim):
        np.add(m[:, p, None], m[None, p, :], out=t)
        np.minimum(m, t, out=m)
    # Strengthening with the buffered unary diagonal.
    ws = get_workspace(dim)
    xor = ws.xor
    d = m[ws.arange, xor]
    np.add(d[:, None], d[xor][None, :], out=t)
    t *= 0.5
    np.minimum(m, t, out=m)
    if counter is not None:
        counter.tick(2 * 2 * dim ** 3 + 3 * dim ** 2)
    if is_bottom_numpy(m):
        return True
    reset_diagonal_numpy(m)
    return False


def shortest_path_dense_numpy(m: np.ndarray, counter: Optional[OpCounter] = None) -> None:
    """Shortest-path step only, on a full coherent DBM (in place).

    Used by the decomposed closure on dense component submatrices
    (strengthening runs globally there, to handle component merging).
    """
    dim = m.shape[0]
    if dim == 0:
        return
    t = _scratch(dim)
    for p in range(dim):
        np.add(m[:, p, None], m[None, p, :], out=t)
        np.minimum(m, t, out=m)
    if counter is not None:
        counter.tick(2 * 2 * dim ** 3)
