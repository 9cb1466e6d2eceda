"""Decomposed octagon closure (paper section 5.4).

When the maintained partition splits the variables into independent
components, closure runs per component:

* **Shortest-path step.** A transitive minimisation can only create a
  new inequality between two variables if a third variable already
  relates to both -- so variables in *different* components can never
  become related during this step, and it is sound to close each
  component's submatrix independently.  Per submatrix we first measure
  sparsity: sparse submatrices use the index-driven sparse closure in
  place; dense submatrices are copied out to a contiguous temporary
  (the paper's workaround for non-contiguous submatrices), closed with
  the vectorised dense closure, and copied back.
* **Strengthening.** This step *can* merge components: a finite unary
  bound ``O[i, i^1]`` on a variable in one component combines with a
  finite unary bound on a variable in another, producing a binary
  inequality across the two.  We fuse every component owning a finite
  unary diagonal entry (plus any unpartitioned variable with one) into
  a single component and run the sparse strengthening, which touches
  exactly the affected rows/columns.

Closure is also the point where the structural information is refreshed
exactly (paper section 3.5): the caller receives the *exact* partition
re-extracted from the closed matrix together with the exact ``nni``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import kernels
from .indexing import expand_vars, half_size
from .partition import Partition
from .stats import OpCounter
from .strengthen import is_bottom_numpy, reset_diagonal_numpy
from .workspace import get_workspace


def submatrix_sparsity(sub: np.ndarray) -> float:
    """Sparsity measure of a component submatrix (half-representation)."""
    b = sub.shape[0] // 2
    if b == 0:
        return 0.0
    return 1.0 - kernels.count_nni(sub) / half_size(b)


def close_component(
    m: np.ndarray,
    variables,
    *,
    sparse_threshold: float = 0.75,
    counter: Optional[OpCounter] = None,
) -> None:
    """Shortest-path-close one component's submatrix in place in ``m``."""
    idx = np.asarray(expand_vars(sorted(variables)), dtype=np.intp)
    gather = np.ix_(idx, idx)
    sub = np.ascontiguousarray(m[gather])
    if submatrix_sparsity(sub) >= sparse_threshold:
        kernels.sparse_shortest_path(sub, counter)
    else:
        # Copy-close-copy-back with the vectorised dense kernel; run only
        # the shortest-path part here (strengthening happens globally so
        # that component merging is handled in one place).
        kernels.dense_shortest_path(sub, counter)
    m[gather] = sub


def strengthen_and_merge(
    m: np.ndarray, partition: Partition, counter: Optional[OpCounter] = None
) -> Partition:
    """Global strengthening; returns the partition with merged blocks."""
    dim = m.shape[0]
    ws = get_workspace(dim)
    d = m[ws.arange, ws.xor]
    finite_vars = np.nonzero(np.isfinite(d).reshape(-1, 2).any(axis=1))[0]
    performed = kernels.strengthen_sparse(m)
    if counter is not None:
        counter.tick(3 * performed)
    if finite_vars.size > 1:
        partition = partition.merge_blocks_containing(finite_vars.tolist())
    return partition


def closure_decomposed(
    m: np.ndarray,
    partition: Partition,
    *,
    sparse_threshold: float = 0.75,
    counter: Optional[OpCounter] = None,
) -> Tuple[bool, Partition]:
    """Close a decomposed DBM in place.

    Returns ``(is_bottom, exact_partition)``.  The returned partition is
    the exact one re-extracted from the closed matrix -- the paper's
    piggybacked recomputation that keeps the maintained structure from
    degrading towards the dense case.
    """
    if partition.is_empty():
        return False, partition
    # Degenerate single full block: defer to the plain dense/sparse path.
    if partition.is_full_block():
        empty = kernels.dense_closure(m, counter)
        if empty:
            return True, partition
        return False, Partition.from_matrix(m)
    for block in partition.blocks:
        close_component(m, block, sparse_threshold=sparse_threshold, counter=counter)
    strengthen_and_merge(m, partition, counter)
    if is_bottom_numpy(m):
        return True, partition
    reset_diagonal_numpy(m)
    return False, Partition.from_matrix(m)
