"""DBM kinds and the online type-switching policy (paper section 3).

The optimised octagon stores every DBM in one of four kinds:

* ``TOP`` -- the maximal element; the matrix is allocated but may be
  uninitialised and the component partition is empty.
* ``DECOMPOSED`` -- a (partial) partition of the variables into
  independent components is maintained; operators run per submatrix.
* ``SPARSE`` -- no partition, but a large fraction of entries is
  trivial, so the sparse closure pays off.
* ``DENSE`` -- no useful structure; vectorised dense operators run on
  the whole matrix and ``nni`` is pinned to its maximum ``2n^2 + 2n``
  (the paper's over-approximation that avoids per-entry checks).

Switching is driven by the sparsity measure ``D = 1 - nni/(2n^2+2n)``
compared against a threshold ``t`` (paper default ``t = 3/4``): sparse
kinds are kept while ``D >= t``.  Exact recomputation of sparsity and
components piggybacks on closure, which is also where switches happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .indexing import half_size


class DbmKind(Enum):
    TOP = "top"
    DECOMPOSED = "decomposed"
    SPARSE = "sparse"
    DENSE = "dense"

    def __str__(self) -> str:  # nicer benchmark output
        return self.value


@dataclass(frozen=True)
class SwitchPolicy:
    """When to treat a DBM as dense vs sparse/decomposed.

    ``threshold`` is the paper's ``t``: the DBM is considered dense when
    its sparsity ``D`` falls below ``t``.  ``decompose`` switches the
    whole online-decomposition machinery off (an ablation knob: with
    ``decompose=False`` and ``threshold=1.0`` the library degenerates to
    a plain vectorised dense implementation).
    """

    threshold: float = 0.75
    decompose: bool = True

    def is_sparse(self, nni: int, n: int) -> bool:
        if n == 0:
            return False
        sparsity = 1.0 - nni / half_size(n)
        return sparsity >= self.threshold

    def kind_for(self, nni: int, n: int, components: int) -> DbmKind:
        """Pick a kind from up-to-date sparsity and component info."""
        if components == 0:
            return DbmKind.TOP
        if not self.decompose:
            return DbmKind.DENSE
        if components > 1:
            return DbmKind.DECOMPOSED
        if self.is_sparse(nni, n):
            return DbmKind.SPARSE
        return DbmKind.DENSE


#: The default policy used throughout the library (paper's t = 3/4).
DEFAULT_POLICY = SwitchPolicy()
