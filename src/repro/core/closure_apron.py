"""APRON's octagon closure on the half representation (paper Algorithm 2).

APRON stores only the lower-triangular half of the coherent DBM.  The
full DBM is *not* symmetric, so Floyd-Warshall cannot simply run on the
stored half: during the ``(2k+1)``-th pivot iteration the algorithm
needs entries of row ``2k+1`` whose coherent mirrors in the lower
triangle were already modified in the ``2k``-th iteration.  APRON's fix
(Algorithm 2) performs *two* min operations per entry per outer
iteration -- one against pivot ``k`` and one against pivot ``k^1`` --
which restores correctness at the price of roughly doubling the work of
full-matrix Floyd-Warshall: ``16n^3 + 22n^2 + 6n`` operations in total
(counting one add + one compare per shortest-path candidate and one
add + one halve + one compare per strengthening candidate).

This module is the *baseline* of the reproduction: a faithful
pure-Python transcription with the exact APRON data layout.  Tests
verify both its result (against the reference full-DBM closure) and its
operation count (against the paper's polynomial).
"""

from __future__ import annotations

from typing import Optional

from .halfmat import HalfMat
from .indexing import cap, matpos2
from .stats import OpCounter
from .strengthen import (
    is_bottom_half,
    reset_diagonal_half,
    strengthen_scalar,
)


def shortest_path_apron(m: HalfMat, counter: Optional[OpCounter] = None) -> None:
    """Algorithm 2: APRON's shortest-path closure on the half DBM."""
    dim = 2 * m.n
    data = m.data
    ticks = 0
    for k in range(dim):
        kb = k ^ 1
        for i in range(dim):
            oik = data[matpos2(i, k)]
            oikb = data[matpos2(i, kb)]
            base = (i + 1) * (i + 1) // 2
            for j in range(cap(i) + 1):
                ticks += 2
                p = base + j
                cand = oik + data[matpos2(k, j)]
                if cand < data[p]:
                    data[p] = cand
                cand = oikb + data[matpos2(kb, j)]
                if cand < data[p]:
                    data[p] = cand
    if counter is not None:
        counter.tick(2 * ticks)  # add + compare per candidate min


def closure_apron(m: HalfMat, counter: Optional[OpCounter] = None) -> bool:
    """Full APRON closure: Algorithm 2 + strengthening.

    Returns True iff the octagon is empty.
    """
    shortest_path_apron(m, counter)
    strengthen_scalar(m, counter)
    if is_bottom_half(m):
        return True
    reset_diagonal_half(m)
    return False


def apron_closure_op_count(n: int) -> int:
    """The paper's operation count for the standard closure.

    ``16n^3 + 22n^2 + 6n``: Algorithm 2 evaluates two candidate mins
    (2 ops each) for each of the ``2n^2 + 2n`` stored entries per outer
    iteration (``2n`` iterations), and strengthening costs 3 ops per
    stored entry.
    """
    return 16 * n ** 3 + 22 * n ** 2 + 6 * n

