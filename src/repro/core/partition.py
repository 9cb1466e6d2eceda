"""Independent components of an octagon (paper section 3.3).

Two variables are *related* when some non-trivial (finite-bound)
octagonal inequality mentions both of them; a finite unary constraint
``+-2v <= c`` relates ``v`` to itself.  The reflexive-transitive closure
of this relation partitions a subset ``V'`` of the variables into
*independent components*; variables outside ``V'`` participate in no
non-trivial inequality at all.

The paper stores the components as a linked list of sorted linked lists
of variable indices.  We store a list of sorted Python lists plus a
variable->block map, which supports the same operations:

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

Maintained partitions may *over-approximate* the exact one (coarser
blocks, larger support); that costs operations but never precision.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from .cow import is_enabled as _sharing_enabled


class UnionFind:
    """Classic disjoint-set forest with path compression + union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


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
    """A partial partition of ``{0 .. n-1}`` into independent components."""

    __slots__ = ("n", "blocks", "_var2block")

    def __init__(self, n: int, blocks: Optional[Iterable[Sequence[int]]] = None):
        self.n = n
        self.blocks: List[List[int]] = []
        self._var2block: Dict[int, int] = {}
        if blocks is not None:
            for block in blocks:
                self.add_block(block)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n: int) -> "Partition":
        """No variable participates in any non-trivial inequality (Top)."""
        return cls(n)

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        """All variables in one component (the degenerate dense case)."""
        return cls(n, [list(range(n))]) if n else cls(n)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Partition":
        """Exact independent components of a full coherent DBM.

        A variable belongs to the support iff one of its four 2x2-block
        entries against some variable (possibly itself, for unary
        constraints) is finite; the diagonal ``0`` entries are trivial
        and ignored.  This is the exact structural refresh piggybacked
        on every closure; blocks come out ordered by their smallest
        variable.
        """
        dim = m.shape[0]
        n = dim // 2
        finite = np.isfinite(m)
        np.fill_diagonal(finite, False)
        # Collapse each 2x2 block: adj[v, w] == some finite entry relates v, w.
        adj = finite.reshape(n, 2, n, 2).any(axis=(1, 3))
        support = adj.any(axis=1)
        part = cls(n)
        if not support.any():
            return part
        labels = _connected_components(adj)
        groups: Dict[int, List[int]] = {}
        for v in np.nonzero(support)[0].tolist():
            groups.setdefault(int(labels[v]), []).append(v)
        for block in groups.values():
            part.add_block(block)
        return part

    def add_block(self, variables: Sequence[int]) -> None:
        block = sorted(set(variables))
        if not block:
            return
        for v in block:
            if v in self._var2block:
                raise ValueError(f"variable {v} already in a block")
            if not 0 <= v < self.n:
                raise ValueError(f"variable {v} out of range for n={self.n}")
        self.blocks.append(block)
        idx = len(self.blocks) - 1
        for v in block:
            self._var2block[v] = idx

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def support(self) -> Set[int]:
        """Variables that belong to some component."""
        return set(self._var2block)

    def is_empty(self) -> bool:
        return not self.blocks

    def copy(self) -> "Partition":
        return Partition(self.n, self.blocks)

    def canonical(self) -> List[List[int]]:
        """Blocks sorted for comparison and display."""
        return sorted(self.blocks)

    def overapproximates(self, exact: "Partition") -> bool:
        """True if ``self`` is a coarsening of ``exact`` on a superset
        of its support -- the safety condition for maintained partitions."""
        if self.n != exact.n:
            return False
        for block in exact.blocks:
            first = self._var2block.get(block[0])
            if first is None:
                return False
            if any(self._var2block.get(v) != first for v in block[1:]):
                return False
        return True

    # ------------------------------------------------------------------
    # the operators induced by meet / join / widening
    # ------------------------------------------------------------------
    def union(self, other: "Partition") -> "Partition":
        """Partition join: merge overlapping blocks (octagon *meet*)."""
        if self.n != other.n:
            raise ValueError("partition size mismatch")
        # Partitions are immutable after construction, so when the COW
        # layer is on (sharing mode) idempotent results alias the input.
        if other is self and _sharing_enabled():
            return self
        uf = UnionFind(self.n)
        members: Set[int] = set()
        for part in (self, other):
            for block in part.blocks:
                members.update(block)
                for v in block[1:]:
                    uf.union(block[0], v)
        groups: Dict[int, List[int]] = {}
        for v in members:
            groups.setdefault(uf.find(v), []).append(v)
        return Partition(self.n, groups.values())

    def intersection(self, other: "Partition") -> "Partition":
        """Partition meet: blockwise intersection on the common support
        (octagon *join* / *widening*)."""
        if self.n != other.n:
            raise ValueError("partition size mismatch")
        if other is self and _sharing_enabled():
            return self
        out = Partition(self.n)
        seen: Dict[tuple, List[int]] = {}
        for v in self.support & other.support:
            key = (self._var2block[v], other._var2block[v])
            seen.setdefault(key, []).append(v)
        for block in seen.values():
            out.add_block(block)
        return out

    def remove_var(self, v: int) -> "Partition":
        """Drop ``v`` from its block (after a forget/projection).

        Removing a variable may in truth split its block; we keep the
        remainder together, which is a sound over-approximation.  The
        exact partition is restored at the next closure.
        """
        idx = self._var2block.get(v)
        if idx is None:
            return self if _sharing_enabled() else self.copy()
        out = Partition(self.n)
        for i, block in enumerate(self.blocks):
            kept = [w for w in block if w != v] if i == idx else block
            if kept:
                out.add_block(kept)
        return out

    def merge_blocks_containing(self, variables: Iterable[int]) -> "Partition":
        """Coarsen: fuse every block that contains one of ``variables``.

        Variables not currently in any block join the fused block too
        (used when strengthening creates new unary constraints).
        """
        vars_list = [v for v in variables if 0 <= v < self.n]
        if not vars_list:
            return self if _sharing_enabled() else self.copy()
        if _sharing_enabled():
            first = self._var2block.get(vars_list[0])
            if first is not None and all(
                    self._var2block.get(v) == first for v in vars_list):
                return self  # already one block: fusing is a no-op
        fused: Set[int] = set()
        untouched: List[List[int]] = []
        hit_blocks = {self._var2block[v] for v in vars_list if v in self._var2block}
        for idx, block in enumerate(self.blocks):
            if idx in hit_blocks:
                fused.update(block)
            else:
                untouched.append(block)
        fused.update(vars_list)
        out = Partition(self.n)
        for block in untouched:
            out.add_block(block)
        out.add_block(sorted(fused))
        return out

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.canonical() == other.canonical()

    def __hash__(self):
        raise TypeError("Partition is unhashable")

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, blocks={self.canonical()})"
