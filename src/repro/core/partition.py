"""Independent components of an octagon (paper section 3.3).

Two variables are *related* when some non-trivial (finite-bound)
octagonal inequality mentions both of them; a finite unary constraint
``+-2v <= c`` relates ``v`` to itself.  The reflexive-transitive closure
of this relation partitions a subset ``V'`` of the variables into
*independent components*; variables outside ``V'`` participate in no
non-trivial inequality at all.

The paper stores the components as a linked list of sorted linked lists
of variable indices.  We store one int label per variable: the smallest
member of the variable's block, or ``-1`` outside the support.  The
sorted block lists are built only when something reads them, then
cached.  Labels are canonical (equal partitions have equal label
lists), and they support the same operations:

* ``union`` of two component sets -- induced by the octagon **meet**
  (a pair related in either input may be related in the result), this
  is the partition *join*: overlapping blocks merge.
* ``intersection`` of two component sets -- induced by octagon **join**
  and **widening** (a pair is related in the result only if related in
  both inputs), this is the partition *meet*: blockwise intersection
  on the common support.
* exact (re)extraction from a DBM, performed together with closure.
* merging of blocks, needed by the strengthening step of the
  decomposed closure.

Every operator but the extraction works on the label lists alone, and
one that changes nothing returns the partition itself.

Maintained partitions may *over-approximate* the exact one (coarser
blocks, larger support); that costs operations but never precision.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from .cow import is_enabled as _sharing_enabled


def _connected_components(adj: np.ndarray) -> np.ndarray:
    """Component label per vertex of a symmetric boolean adjacency matrix.

    Min-label propagation with pointer jumping: every vertex takes the
    smallest label among itself and its neighbours, each root takes the
    smallest label any vertex pointing at it took, then each label is
    chased to its own label until nothing moves.  Labels only ever
    decrease and always name a vertex of the same component, so at the
    fixpoint each component carries its smallest vertex index.  Hooking
    the roots carries a low label across a whole tree in one round;
    without it a path visited out of index order needs up to n rounds.
    After a closure every component is a clique and two rounds suffice;
    the structural refresh sees at most a few dozen vertices, where this
    beats both a Python union-find and a sparse-graph library call.
    """
    n = adj.shape[0]
    labels = np.arange(n)
    while True:
        hooked = np.where(adj, labels, n).min(axis=1, initial=n)
        np.minimum(hooked, labels, out=hooked)
        if np.array_equal(hooked, labels):
            return labels
        np.minimum.at(hooked, labels, hooked)
        labels = hooked
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


class Partition:
    """A partial partition of ``{0 .. n-1}`` into independent components.

    Immutable once built (``add_block`` is for construction only), so
    operators may return an input unchanged and octagon copies share it.
    """

    __slots__ = ("n", "_labels", "_blocks")

    def __init__(self, n: int, blocks: Optional[Iterable[Sequence[int]]] = None):
        self.n = n
        self._labels: List[int] = [-1] * n
        self._blocks: Optional[List[List[int]]] = None
        if blocks is not None:
            for block in blocks:
                self.add_block(block)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _of(cls, n: int, labels: List[int]) -> "Partition":
        """Wrap a label list (the caller guarantees smallest-member labels)."""
        part = cls.__new__(cls)
        part.n = n
        part._labels = labels
        part._blocks = None
        return part

    @classmethod
    def empty(cls, n: int) -> "Partition":
        """No variable participates in any non-trivial inequality (Top)."""
        return cls._of(n, [-1] * n)

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        """All variables in one component (the degenerate dense case)."""
        return cls._of(n, [0] * n)

    @classmethod
    def from_components(cls, labels: np.ndarray, support: np.ndarray) -> "Partition":
        """The partition of ``support`` by :func:`_connected_components`
        labels (each component's smallest vertex)."""
        return cls._of(len(labels), np.where(support, labels, -1).tolist())

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Partition":
        """Exact independent components of a full coherent DBM.

        A variable belongs to the support iff one of its four 2x2-block
        entries against some variable (possibly itself, for unary
        constraints) is finite; the diagonal ``0`` entries are trivial
        and ignored.  This is the exact structural refresh piggybacked
        on every closure.
        """
        finite = np.isfinite(m)
        np.fill_diagonal(finite, False)
        # Collapse each 2x2 block: adj[v, w] == some finite entry relates
        # v, w.  Two ORs of strided halves; ``any(axis=(1, 3))`` on the
        # 4-d reshape takes ten times as long at n = 40.
        rows = finite[0::2] | finite[1::2]
        adj = rows[:, 0::2] | rows[:, 1::2]
        if adj.size and adj[0].all():  # everything relates to variable 0
            return cls.single_block(adj.shape[0])
        support = adj.any(axis=1)
        if not support.any():
            return cls.empty(adj.shape[0])
        return cls.from_components(_connected_components(adj), support)

    def add_block(self, variables: Sequence[int]) -> None:
        block = sorted(set(variables))
        if not block:
            return
        labels = self._labels
        for v in block:
            if not 0 <= v < self.n:
                raise ValueError(f"variable {v} out of range for n={self.n}")
            if labels[v] >= 0:
                raise ValueError(f"variable {v} already in a block")
        for v in block:
            labels[v] = block[0]
        self._blocks = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> List[List[int]]:
        """The components, each sorted, ordered by smallest variable."""
        if self._blocks is None:
            if self.is_full_block():
                self._blocks = [list(range(self.n))]
            else:
                groups: Dict[int, List[int]] = {}
                for v, label in enumerate(self._labels):
                    if label >= 0:
                        groups.setdefault(label, []).append(v)
                self._blocks = list(groups.values())
        return self._blocks

    def block_count(self) -> int:
        """Number of components, without building the block lists."""
        return len(set(self._labels) - {-1})

    @property
    def support(self) -> Set[int]:
        """Variables that belong to some component."""
        return {v for v, label in enumerate(self._labels) if label >= 0}

    def is_empty(self) -> bool:
        return self._labels.count(-1) == self.n

    def is_full_block(self) -> bool:
        """All ``n`` variables in one component."""
        return self.n > 0 and self._labels.count(0) == self.n

    def copy(self) -> "Partition":
        return Partition._of(self.n, list(self._labels))

    def _same(self) -> "Partition":
        """The result of an operation that changes nothing: ``self``,
        or a copy when the COW layer is off (baseline allocation)."""
        return self if _sharing_enabled() else self.copy()

    def canonical(self) -> List[List[int]]:
        """Blocks sorted for comparison and display."""
        return list(self.blocks)  # already ordered by smallest variable

    def overapproximates(self, exact: "Partition") -> bool:
        """True if ``self`` is a coarsening of ``exact`` on a superset
        of its support -- the safety condition for maintained partitions."""
        if self.n != exact.n:
            return False
        seen: Dict[int, int] = {}
        for mine, theirs in zip(self._labels, exact._labels):
            if theirs >= 0 and (mine < 0 or seen.setdefault(theirs, mine) != mine):
                return False
        return True

    # ------------------------------------------------------------------
    # the operators induced by meet / join / widening
    # ------------------------------------------------------------------
    def union(self, other: "Partition") -> "Partition":
        """Partition join: merge overlapping blocks (octagon *meet*)."""
        if self.n != other.n:
            raise ValueError("partition size mismatch")
        a, b = self._labels, other._labels
        if a == b or self.is_full_block() or other.is_empty():
            return self._same()
        if other.is_full_block() or self.is_empty():
            return other._same()
        # Union-find over the variables, always hooking the larger root
        # under the smaller, so every root is its component's minimum.
        root = list(range(self.n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for v in range(self.n):
            for label in (a[v], b[v]):
                if label >= 0:
                    rv, rl = find(v), find(label)
                    if rv != rl:
                        root[max(rv, rl)] = min(rv, rl)
        return Partition._of(self.n, [find(v) if a[v] >= 0 or b[v] >= 0 else -1
                                      for v in range(self.n)])

    def intersection(self, other: "Partition") -> "Partition":
        """Partition meet: blockwise intersection on the common support
        (octagon *join* / *widening*)."""
        if self.n != other.n:
            raise ValueError("partition size mismatch")
        if self._labels == other._labels or other.is_full_block():
            return self._same()
        if self.is_full_block():
            return other._same()
        out = [-1] * self.n
        first: Dict[tuple, int] = {}
        for v, key in enumerate(zip(self._labels, other._labels)):
            if key[0] >= 0 and key[1] >= 0:
                out[v] = first.setdefault(key, v)
        return Partition._of(self.n, out)

    def remove_var(self, v: int) -> "Partition":
        """Drop ``v`` from its block (after a forget/projection).

        Removing a variable may in truth split its block; we keep the
        remainder together, which is a sound over-approximation.  The
        exact partition is restored at the next closure.
        """
        label = self._labels[v]
        if label < 0:
            return self._same()
        out = list(self._labels)
        out[v] = -1
        if label == v:  # v named its block: the next member takes over
            rest = [w for w in range(v + 1, self.n) if out[w] == v]
            for w in rest:
                out[w] = rest[0]
        return Partition._of(self.n, out)

    def merge_blocks_containing(self, variables: Iterable[int]) -> "Partition":
        """Coarsen: fuse every block that contains one of ``variables``.

        Variables not currently in any block join the fused block too
        (used when strengthening creates new unary constraints).
        """
        if self.is_full_block():
            return self._same()
        labels = self._labels
        vars_list = [v for v in variables if 0 <= v < self.n]
        hit = {labels[v] for v in vars_list}
        if not vars_list or (len(hit) == 1 and -1 not in hit):
            return self._same()  # nothing to fuse, or already one block
        hit.discard(-1)
        target = min(min(vars_list), min(hit, default=self.n))
        hit.discard(target)  # the block already labelled ``target`` stays
        out = [target if label in hit else label for label in labels] if hit else list(labels)
        for v in vars_list:
            out[v] = target
        return Partition._of(self.n, out)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self._labels == other._labels

    def __hash__(self):
        raise TypeError("Partition is unhashable")

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, blocks={self.canonical()})"
