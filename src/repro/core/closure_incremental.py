"""Incremental closure (paper section 5.6).

After a constraint meet whose new edges all touch one variable ``v``
(a test, or the interval-linearised constraints of a general linear
assignment), only the inequalities involving ``v`` are out of date;
the rest of the DBM is still closed.  Closure can then be restored in
quadratic time.  The paper describes it as one iteration of the
outermost shortest-path loop (the pivot pair ``2v``/``2v+1``) plus a
strengthening step; making that exact requires first bringing ``v``'s
own lines up to date:

1. **Line refresh** -- two min-plus vector products compute the true
   shortest paths from ``+v`` and ``-v`` to everything, using the fact
   that every new edge is incident to one of them and the remainder of
   the matrix is closed.
2. **Sign interplay** -- a path into ``+v`` may route through ``-v``
   and vice versa; two vector mins fix this.
3. **Pivot-pair sweep** -- one fused bulk update of the whole matrix
   against ``v``'s (now exact) lines.
4. **Strengthening**, as in the full closure.

All candidates in each phase are computed from a consistent snapshot
and written symmetrically, so coherence is preserved by construction.
Total cost is ``O(n^2)``; equivalence with the full cubic closure on
almost-closed inputs is property-tested.  Octagonal assignments
(``v := +-w + c``, ``v := c``, ``v := [lo, hi]``) do not come here:
:class:`~repro.core.octagon.Octagon` writes their closed result
directly in ``O(n)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .stats import OpCounter
from .strengthen import (
    is_bottom_numpy,
    reset_diagonal_numpy,
    strengthen_numpy,
)
from .workspace import get_workspace


def swept_cells(dim: int) -> int:
    """Cells one :func:`incremental_closure` sweeps on a ``dim x dim``
    DBM: two min-plus line refreshes (``dim^2`` each), the pivot-pair
    bulk sweep (two candidate matrices) and strengthening."""
    return 5 * dim * dim


def incremental_closure(
    m: np.ndarray, v: int, counter: Optional[OpCounter] = None
) -> bool:
    """Restore closure after changes confined to variable ``v``.

    ``m`` must be coherent, and closed except for entries in the rows
    and columns of ``2v``/``2v+1``.  In-place; returns True iff bottom.
    """
    dim = m.shape[0]
    p0, p1 = 2 * v, 2 * v + 1
    if not 0 <= p1 < dim:
        raise IndexError(f"variable {v} out of range for dim {dim}")
    ws = get_workspace(dim)
    xor = ws.xor
    t = ws.scratch
    tmp = ws.vec("inc_tmp")
    # Phase 1: one-hop-new-edge distances out of +v / -v against the
    # closed rest:  d(p, j) = min_x O[p, x] + O[x, j] (snapshot).
    d0 = ws.vec("inc_d0")
    d1 = ws.vec("inc_d1")
    np.add(m[p0, :, None], m, out=t)
    np.min(t, axis=0, out=d0)
    np.add(m[p1, :, None], m, out=t)
    np.min(t, axis=0, out=d1)
    # Phase 2: routes through the opposite sign of v.  A path between
    # the two signs may use new edges on *both* ends with an old-closed
    # segment in between (edge, old path, edge), so the pair-to-pair
    # distances take one more min-plus composition.
    np.add(d0, m[:, p1], out=tmp)
    dd01 = float(tmp.min())  # exact d(+v -> -v)
    np.add(d1, m[:, p0], out=tmp)
    dd10 = float(tmp.min())  # exact d(-v -> +v)
    np.add(d0, m[:, p0], out=tmp)
    dd00 = float(tmp.min())  # cycle through +v (bottom check)
    np.add(d1, m[:, p1], out=tmp)
    dd11 = float(tmp.min())  # cycle through -v
    r0 = ws.vec("inc_r0")
    r1 = ws.vec("inc_r1")
    np.add(d1, dd01, out=r0)
    np.minimum(d0, r0, out=r0)
    np.add(d0, dd10, out=r1)
    np.minimum(d1, r1, out=r1)
    r0[p1] = min(r0[p1], dd01)
    r1[p0] = min(r1[p0], dd10)
    r0[p0] = min(r0[p0], dd00)
    r1[p1] = min(r1[p1], dd11)
    # Install the refreshed lines coherently: columns are the mirrors of
    # the opposite-sign rows (O[i, p0] == O[p1, i^1]).
    np.minimum(m[p0, :], r0, out=m[p0, :])
    np.minimum(m[p1, :], r1, out=m[p1, :])
    col0 = ws.vec("inc_col0")
    col1 = ws.vec("inc_col1")
    np.take(r1, xor, out=col0)
    np.take(r0, xor, out=col1)
    np.minimum(m[:, p0], col0, out=m[:, p0])
    np.minimum(m[:, p1], col1, out=m[:, p1])
    # Phase 3: one fused pivot-pair sweep, all candidates from the
    # refreshed lines (kept in r0/r1 to stay snapshot-consistent).
    t2 = ws.scratch2
    np.add(col0[:, None], r0[None, :], out=t)
    np.add(col1[:, None], r1[None, :], out=t2)
    np.minimum(t, t2, out=t)
    np.minimum(m, t, out=m)
    # Phase 4: strengthening.
    strengthen_numpy(m)
    if counter is not None:
        counter.tick(swept_cells(dim))  # the paper's quadratic bound
    if is_bottom_numpy(m):
        return True
    reset_diagonal_numpy(m)
    return False
