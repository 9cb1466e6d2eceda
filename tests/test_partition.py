"""Tests for independent-component partitions."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbm_strategies import block_dbms, coherent_dbms, make_coherent_dbm
from repro.core import cow
from repro.core.densemat import new_top
from repro.core.partition import Partition, _connected_components


class UnionFind:
    """Classic disjoint-set forest with path compression + union by
    size: the reference the label partition is checked against."""

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


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        assert uf.find(3) == 3
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


def _uf_groups(n, edges):
    """Components of an undirected graph by union-find, listed by their
    smallest vertex."""
    uf = UnionFind(n)
    for v, w in edges:
        uf.union(v, w)
    groups = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())


def _label_groups(labels):
    groups = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(v)
    return sorted(groups.values())


def _path(order):
    """The undirected path visiting ``order``."""
    adj = np.zeros((len(order), len(order)), dtype=bool)
    adj[order[:-1], order[1:]] = True
    return adj | adj.T


@st.composite
def adjacencies(draw, max_n: int = 200):
    """Symmetric boolean adjacency matrices: random edge sets (with
    self-loops and isolated vertices), complete graphs and paths in a
    drawn vertex order."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["random", "complete", "path"]))
    if shape == "complete":
        return np.ones((n, n), dtype=bool)
    if shape == "path":
        return _path(draw(st.permutations(range(n))))
    adj = np.zeros((n, n), dtype=bool)
    vertex = st.integers(0, n - 1)
    for v, w in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        adj[v, w] = True
    return adj | adj.T


# A path whose neighbours' labels lie far apart: 0, 199, 1, 198, ...
ZIGZAG_200 = [v for pair in zip(range(100), range(199, 99, -1)) for v in pair]


class TestConnectedComponents:
    """The numpy min-label kernel against the union-find reference."""

    @settings(max_examples=150, deadline=None)
    @given(adjacencies())
    def test_matches_union_find(self, adj):
        n = adj.shape[0]
        labels = _connected_components(adj)
        edges = zip(*np.nonzero(adj))
        assert _label_groups(labels) == _uf_groups(n, edges)
        # Each component is labelled by its smallest vertex.
        for group in _label_groups(labels):
            assert set(labels[group].tolist()) == {group[0]}

    @pytest.mark.parametrize("adj, labels", [
        (_path(list(range(200))), [0] * 200),
        (_path(ZIGZAG_200), [0] * 200),
        (_path([0] + list(range(199, 0, -1))), [0] * 200),
        (np.ones((200, 200), dtype=bool), [0] * 200),
        (np.zeros((200, 200), dtype=bool), list(range(200))),
        (np.eye(200, dtype=bool), list(range(200))),
    ], ids=["path", "zigzag", "hub-reversed", "complete", "isolated", "self-loops"])
    def test_extreme_shapes_200(self, adj, labels):
        assert _connected_components(adj).tolist() == labels


def _reference_blocks(m):
    """``from_matrix`` by union-find over the finite off-diagonal DBM
    entries, blocks listed by their smallest variable."""
    edges = [(int(i) // 2, int(j) // 2)
             for i, j in zip(*np.nonzero(np.isfinite(m))) if i != j]
    support = {v for edge in edges for v in edge}
    return [g for g in _uf_groups(m.shape[0] // 2, edges) if g[0] in support]


class TestConstruction:
    def test_empty(self):
        p = Partition.empty(4)
        assert p.is_empty()
        assert p.support == set()

    def test_single_block(self):
        p = Partition.single_block(3)
        assert p.canonical() == [[0, 1, 2]]

    def test_zero_variables(self):
        for p in (Partition.empty(0), Partition.single_block(0)):
            assert p.is_empty() and not p.is_full_block() and p.blocks == []

    def test_add_block_rejects_overlap(self):
        p = Partition(4, [[0, 1]])
        with pytest.raises(ValueError):
            p.add_block([1, 2])

    def test_add_block_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition(2, [[0, 5]])


class TestExtraction:
    def test_from_matrix_example(self):
        # The paper's Figure 3: u,x and x,z related; y unconstrained;
        # v has a unary bound.  Components: {u, x, z} and {v}.
        n = 5
        u, v, x, y, z = range(5)
        m = new_top(n)
        entries = []
        m[2 * u, 2 * x] = 2.0  # x - u <= 2
        m[2 * x ^ 1, 2 * u ^ 1] = 2.0
        m[2 * x, 2 * z] = 1.0
        m[2 * z ^ 1, 2 * x ^ 1] = 1.0
        m[2 * v + 1, 2 * v] = 4.0  # v <= 2 (unary)
        p = Partition.from_matrix(m)
        assert p.canonical() == [[0, 2, 4], [1]]

    def test_diagonal_is_trivial(self):
        p = Partition.from_matrix(new_top(3))
        assert p.is_empty()

    @given(st.one_of(coherent_dbms(max_n=40),
                     block_dbms().map(lambda data: data[0])))
    def test_from_matrix_blocks_match_union_find(self, m):
        assert Partition.from_matrix(m).blocks == _reference_blocks(m)

    @given(block_dbms())
    def test_extraction_respects_generator_blocks(self, data):
        m, blocks = data
        exact = Partition.from_matrix(m)
        declared = Partition(m.shape[0] // 2, blocks)
        assert declared.overapproximates(exact)


class TestOperators:
    def test_union_merges_overlapping(self):
        a = Partition(5, [[0, 1], [3]])
        b = Partition(5, [[1, 2]])
        u = a.union(b)
        assert u.canonical() == [[0, 1, 2], [3]]

    def test_intersection_blockwise(self):
        a = Partition(5, [[0, 1, 2], [3, 4]])
        b = Partition(5, [[0, 1], [2, 3, 4]])
        i = a.intersection(b)
        assert i.canonical() == [[0, 1], [2], [3, 4]]

    def test_intersection_restricts_support(self):
        a = Partition(4, [[0, 1, 2]])
        b = Partition(4, [[1, 2, 3]])
        assert a.intersection(b).support == {1, 2}

    def test_merge_blocks_containing(self):
        p = Partition(6, [[0, 1], [2, 3], [4]])
        merged = p.merge_blocks_containing([1, 2, 5])
        assert merged.canonical() == [[0, 1, 2, 3, 5], [4]]

    def test_remove_var(self):
        p = Partition(4, [[0, 1, 2]])
        q = p.remove_var(1)
        assert q.canonical() == [[0, 2]]
        assert p.canonical() == [[0, 1, 2]]  # original untouched
        assert p.remove_var(3).canonical() == p.canonical()

    def test_remove_last_var_drops_block(self):
        p = Partition(3, [[1]])
        assert p.remove_var(1).is_empty()


class TestLaws:
    @given(block_dbms(), block_dbms())
    def test_union_is_coarser_intersection_finer(self, da, db):
        ma, _ = da
        mb, _ = db
        n = min(ma.shape[0], mb.shape[0]) // 2
        a = Partition.from_matrix(ma[: 2 * n, : 2 * n])
        b = Partition.from_matrix(mb[: 2 * n, : 2 * n])
        u = a.union(b)
        i = a.intersection(b)
        assert u.overapproximates(a) and u.overapproximates(b)
        assert a.overapproximates(i) and b.overapproximates(i)

    @given(block_dbms())
    def test_union_intersection_idempotent(self, data):
        m, _ = data
        p = Partition.from_matrix(m)
        assert p.union(p) == p
        assert p.intersection(p) == p

    def test_equality_and_repr(self):
        p = Partition(3, [[0, 2]])
        q = Partition(3, [[2, 0]])
        assert p == q
        assert "blocks" in repr(p)
        with pytest.raises(TypeError):
            hash(p)


class SetPartition:
    """The reference model: a plain list of disjoint variable sets."""

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = [set(b) for b in blocks if b]

    def canonical(self):
        return sorted(sorted(b) for b in self.blocks)

    @property
    def support(self):
        return set().union(*self.blocks)

    def is_empty(self):
        return not self.blocks

    def is_full_block(self):
        return len(self.blocks) == 1 and len(self.blocks[0]) == self.n

    def overapproximates(self, exact):
        return all(any(b <= mine for mine in self.blocks) for b in exact.blocks)

    def union(self, other):
        uf = UnionFind(self.n)
        for block in self.blocks + other.blocks:
            first = min(block)
            for v in block:
                uf.union(first, v)
        groups = {}
        for v in self.support | other.support:
            groups.setdefault(uf.find(v), set()).add(v)
        return SetPartition(self.n, groups.values())

    def intersection(self, other):
        return SetPartition(self.n, [a & b for a in self.blocks for b in other.blocks])

    def remove_var(self, v):
        return SetPartition(self.n, [b - {v} for b in self.blocks])

    def merge_blocks_containing(self, variables):
        hit = {v for v in variables if 0 <= v < self.n}
        if not hit:
            return SetPartition(self.n, self.blocks)
        fused = set(hit)
        kept = []
        for block in self.blocks:
            if block & hit:
                fused |= block
            else:
                kept.append(block)
        return SetPartition(self.n, kept + [fused])


def _edges_matrix(n, edges):
    """A coherent DBM relating each drawn pair (a self-pair is a unary
    bound)."""
    return make_coherent_dbm(n, [(2 * v, 2 * w + (v == w), 1.0) for v, w in edges])


class TestLabelModel:
    """Random operation sequences on the label partition and on the
    list-of-sets reference agree on every query."""

    @staticmethod
    def _agree(part, ref):
        assert part.canonical() == ref.canonical()
        assert part.blocks == ref.canonical()
        assert part.support == ref.support
        assert part.is_empty() == ref.is_empty()
        assert part.is_full_block() == ref.is_full_block()
        # Labels stay canonical: each names its block's smallest member.
        assert part == Partition(ref.n, ref.canonical())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_operations_match_set_model(self, data):
        n = data.draw(st.integers(1, 8))
        var = st.integers(0, n - 1)
        with cow.disabled() if data.draw(st.booleans()) else nullcontext():
            pool = []
            for _ in range(data.draw(st.integers(1, 3))):
                edges = data.draw(st.lists(st.tuples(var, var), max_size=2 * n))
                ref = SetPartition(n, _reference_blocks(_edges_matrix(n, edges)))
                pool.append((Partition.from_matrix(_edges_matrix(n, edges)), ref))
            for _ in range(data.draw(st.integers(1, 12))):
                op = data.draw(st.sampled_from(
                    ["from_matrix", "union", "intersection", "remove_var", "merge"]))
                part, ref = data.draw(st.sampled_from(pool))
                if op == "from_matrix":
                    edges = data.draw(st.lists(st.tuples(var, var), max_size=2 * n))
                    m = _edges_matrix(n, edges)
                    part, ref = Partition.from_matrix(m), SetPartition(n, _reference_blocks(m))
                elif op in ("union", "intersection"):
                    other, other_ref = data.draw(st.sampled_from(pool))
                    part = getattr(part, op)(other)
                    ref = getattr(ref, op)(other_ref)
                elif op == "remove_var":
                    v = data.draw(var)
                    part, ref = part.remove_var(v), ref.remove_var(v)
                else:
                    vs = data.draw(st.lists(st.integers(-1, n), max_size=4))
                    part = part.merge_blocks_containing(vs)
                    ref = ref.merge_blocks_containing(vs)
                self._agree(part, ref)
                pool.append((part, ref))
            for (a, a_ref), (b, b_ref) in zip(pool, reversed(pool)):
                assert a.overapproximates(b) == a_ref.overapproximates(b_ref)
                assert (a == b) == (a.canonical() == b.canonical())
