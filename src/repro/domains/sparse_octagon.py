"""A sparsity-preserving octagon backend (constraint-graph DBM).

:class:`SparseOctagon` implements the same abstract-domain interface as
the dense :class:`~repro.core.octagon.Octagon`, but never materialises
the ``(2n)^2`` matrix on the analysis path.  The representation
(following Jourdan, *Sparsity Preserving Algorithms for Octagons*, and
Chawdhary/Robbins/King, *Incrementally Closing Octagons*) is:

* ``cells`` -- a dict from canonical half keys ``(r, s)`` (``s <=
  (r | 1)``, ``r != s``) to bounds.  A finite value is an explicit DBM
  cell.  An ``INF`` value is a *sentinel*: the cell is explicitly
  trivial even though the unary snapshot below would imply a finite
  bound (widening produces these).
* ``snap`` -- the unary bounds ``m[i, i^1]`` as of the last closure
  (``None`` when never closed).  Strong closure's strengthening step
  makes every pair of unary-bounded variables relational
  (``m[i, j] <- (u_i + u_{j^1})/2``); storing those *mixed* cells
  explicitly would connect everything into one dense component.  They
  stay implicit: a cell absent from ``cells`` has the value implied by
  the snapshot.

The defining invariant is **cellwise mirroring**: at every point in an
operator sequence, ``val(i, j)`` equals the matrix cell the dense
backend would hold after the same sequence -- raw or closed.  This is
what makes the cross-backend differential mode (bit-identical verdicts
*and* bounds) a theorem about the representation rather than a hope;
the strengthening-implied cells are consequences of the unary bounds,
so a DBM whose only inter-component cells are implied mixes closes
per component (its concretisation is a product), and the snapshot
reproduces even the dense backend's *stale* mixes after an
unclosed meet, because it remembers the unaries of the closure that
created them rather than the current ones.

Closure gathers each explicit component into a tiny dense submatrix
and runs the registered closure kernels on it, so cell traffic (and
budget charge) is ``sum (2|B|)^2`` instead of ``(2n)^2``.  When the
stored representation densifies past ``GraphPolicy.threshold`` the
closure falls back to one dense sweep over a materialised matrix and
reduces the result back to cells (with hysteresis so the choice does
not thrash).  Exact arithmetic note: implied cells are recomputed from
the snapshot (``(a + b) * 0.5``) rather than stored and shifted, so
bit-parity with the dense backend relies on exact (dyadic) arithmetic
-- which all suite programs and the differential tests use.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import budget as _budget
from ..core import kernels
from ..core import sentinel as _sentinel
from ..core import stats
from ..core.bounds import INF, is_finite
from ..core.cow import is_enabled as _cow_enabled
from ..core.constraints import (
    LinExpr,
    OctConstraint,
    constraint_of_cell,
    dbm_cells,
)
from ..core.indexing import half_size
from ..core.kernels.graph import Key, UnionFind, block_indices, canon
from ..core.kinds import DEFAULT_GRAPH_POLICY, DbmKind, GraphPolicy
from ..obs import metrics, trace
from ..testing import faults as _faults

metrics.REGISTRY.counter(
    "sparse_rep_switches",
    "Graph-octagon DBMs that crossed the dense/graph closure boundary")


class SparseOctagon:
    """An octagon over ``n`` variables in constraint-graph form."""

    __slots__ = ("n", "cells", "snap", "closed", "_bottom", "policy",
                 "dense_mode", "_ccache", "_alias")

    BATCHABLE = True  # see analysis/plan.py

    def __init__(
        self,
        n: int,
        cells: Optional[Dict[Key, float]] = None,
        snap: Optional[List[float]] = None,
        *,
        closed: bool = False,
        bottom: bool = False,
        policy: GraphPolicy = DEFAULT_GRAPH_POLICY,
        dense_mode: bool = False,
    ):
        self.n = n
        self.cells = cells if cells is not None else {}
        self.snap = snap
        self.closed = closed
        self._bottom = bottom
        self.policy = policy
        self.dense_mode = dense_mode
        self._ccache: Optional["SparseOctagon"] = None
        # Value-identity token mirroring the dense backend's COW matrix
        # identity: shared by copy(), replaced by every in-place write.
        # The dense backend short-circuits join/is_leq/is_eq on aliased
        # matrices (returning the *raw* operand), and bit-parity of
        # analysis trajectories requires taking those exact shortcuts.
        self._alias: object = object()

    # ------------------------------------------------------------------
    # cell access
    # ------------------------------------------------------------------
    def _val_key(self, k: Key) -> float:
        """Value of the canonical half cell ``k`` (not the diagonal)."""
        v = self.cells.get(k)
        if v is not None:
            return v
        s = self.snap
        if s is not None:
            a = s[k[0]]
            b = s[k[1] ^ 1]
            if a < INF and b < INF:
                return (a + b) * 0.5
        return INF

    def val(self, i: int, j: int) -> float:
        """The coherent DBM cell ``m[i, j]`` this representation denotes."""
        if i == j:
            return 0.0
        return self._val_key(canon(i, j))

    def _u(self, i: int) -> float:
        """Current unary value ``m[i, i^1]``."""
        v = self.cells.get((i, i ^ 1))
        if v is not None:
            return v
        if self.snap is not None:
            return self.snap[i]
        return INF

    def to_matrix(self) -> np.ndarray:
        """Materialise the full coherent DBM (tests, export, dense mode)."""
        size = 2 * self.n
        if self.snap is not None:
            s = np.asarray(self.snap, dtype=np.float64)
            s2 = s[np.arange(size) ^ 1]
            m = (s[:, None] + s2[None, :]) * 0.5
        else:
            m = np.full((size, size), INF, dtype=np.float64)
        for (r, c), v in self.cells.items():
            m[r, c] = v
            m[c ^ 1, r ^ 1] = v
        np.fill_diagonal(m, 0.0)
        return m

    @property
    def mat(self) -> np.ndarray:
        """Materialised matrix view (``keep_invariants`` / serialisation)."""
        return self.to_matrix()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls, n: int, *,
            policy: GraphPolicy = DEFAULT_GRAPH_POLICY) -> "SparseOctagon":
        return cls(n, {}, None, closed=True, policy=policy)

    @classmethod
    def bottom(cls, n: int, *,
               policy: GraphPolicy = DEFAULT_GRAPH_POLICY) -> "SparseOctagon":
        return cls(n, {}, None, closed=True, bottom=True, policy=policy)

    @classmethod
    def from_constraints(
        cls, n: int, constraints: Iterable[OctConstraint], *,
        policy: GraphPolicy = DEFAULT_GRAPH_POLICY,
    ) -> "SparseOctagon":
        out = cls.top(n, policy=policy)
        for cons in constraints:
            out._meet_constraint_cells(cons)
        return out

    @classmethod
    def from_box(
        cls, bounds: Sequence[Tuple[float, float]], *,
        policy: GraphPolicy = DEFAULT_GRAPH_POLICY,
    ) -> "SparseOctagon":
        n = len(bounds)
        out = cls.top(n, policy=policy)
        for v, (lo, hi) in enumerate(bounds):
            if lo > hi:
                return cls.bottom(n, policy=policy)
            if hi != INF:
                out._meet_constraint_cells(OctConstraint.upper(v, hi))
            if lo != -INF:
                out._meet_constraint_cells(OctConstraint.lower(v, lo))
        return out

    @classmethod
    def from_matrix(
        cls, mat: np.ndarray, *,
        policy: GraphPolicy = DEFAULT_GRAPH_POLICY,
    ) -> "SparseOctagon":
        """Wrap a full coherent DBM as an (unclosed) graph octagon.

        Every finite off-diagonal cell of the canonical half becomes an
        explicit cell; there is no snapshot, so ``to_matrix`` round-trips
        bit-identically.
        """
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"expected a 2n x 2n matrix, got {mat.shape}")
        n = mat.shape[0] // 2
        cells: Dict[Key, float] = {}
        for r in range(2 * n):
            for s in range(min(r | 1, 2 * n - 1) + 1):
                if s == r:
                    continue
                v = mat[r, s]
                if v < INF:
                    cells[(r, s)] = float(v)
        return cls(n, cells, None, closed=False, policy=policy)

    @classmethod
    def from_dense(cls, oct_, *,
                   policy: GraphPolicy = DEFAULT_GRAPH_POLICY) -> "SparseOctagon":
        """Convert a dense :class:`~repro.core.octagon.Octagon`."""
        if oct_._bottom:
            return cls.bottom(oct_.n, policy=policy)
        out = cls.from_matrix(oct_.mat, policy=policy)
        out.closed = oct_.closed
        return out

    def to_dense(self):
        """Convert to the dense backend (representation-switch boundary)."""
        from ..core.octagon import Octagon

        if self._bottom:
            return Octagon.bottom(self.n)
        out = Octagon.from_matrix(self.to_matrix(), copy=False)
        out.closed = self.closed
        return out

    def copy(self) -> "SparseOctagon":
        out = SparseOctagon(
            self.n, dict(self.cells),
            list(self.snap) if self.snap is not None else None,
            closed=self.closed, bottom=self._bottom,
            policy=self.policy, dense_mode=self.dense_mode)
        out._ccache = self._ccache
        out._alias = self._alias
        return out

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def kind(self) -> DbmKind:
        if not self.cells and self.snap is None:
            return DbmKind.TOP
        return DbmKind.DENSE if self.dense_mode else DbmKind.GRAPH

    def _finite_cell_count(self) -> int:
        return sum(1 for v in self.cells.values() if v < INF)

    @property
    def stored_cells(self) -> int:
        """Explicit finite binary/unary cells (sentinels excluded)."""
        return self._finite_cell_count()

    @property
    def sparsity(self) -> float:
        """Stored sparsity ``1 - (2n + cells)/(2n^2 + 2n)``."""
        return self.policy.sparsity(self._finite_cell_count(), self.n)

    def _become_bottom(self) -> None:
        self._bottom = True
        self._alias = object()
        self.closed = True
        self.cells = {}
        self.snap = None
        self._ccache = None

    def _gauges(self, workspace_cells: int) -> None:
        """Record the sparsity/memory gauges at a closure boundary.

        ``dbm_peak_bytes`` counts 8 bytes per materialised DBM cell --
        stored cells plus unary snapshot plus the largest kernel
        workspace -- the representation's payload, excluding container
        constants on both backends (the dense side likewise counts its
        ``8 * (2n)^2`` buffer, not the ndarray header).
        """
        stored = len(self.cells) + 2 * self.n
        stats.bump_max("dbm_finite_cells", 2 * self.n + self._finite_cell_count())
        stats.bump_max("dbm_half_size", half_size(self.n))
        stats.bump_max("dbm_peak_bytes", 8 * (stored + workspace_cells))

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def closure(self) -> "SparseOctagon":
        """Closed canonical form; caches like the dense backend."""
        if self._bottom or self.closed:
            return self
        cc = self._ccache
        if cc is not None:
            stats.bump("closure_cache_hits")
            return cc
        out = self.copy()
        out._ccache = None
        out._close_in_place()
        if out._bottom:
            self._become_bottom()
            return self
        self._ccache = out
        return out

    def close(self) -> "SparseOctagon":
        return self.closure()

    def _close_in_place(self) -> None:
        if not self.cells and self.snap is None:
            stats.record_closure(self.n, str(DbmKind.TOP), 0.0, 0)
            self.closed = True
            return
        if stats.capturing_closure_inputs():
            stats.record_closure_input(self.to_matrix(), [])
        was_dense = self.dense_mode
        if self.policy.use_graph(self._finite_cell_count(), self.n,
                                 self.dense_mode):
            self._close_graph()
        else:
            self._close_densely()
        if self._bottom:
            return
        # Hysteresis: re-decide from the reduced (post-closure) size.
        next_dense = not self.policy.use_graph(
            self._finite_cell_count(), self.n, self.dense_mode)
        if next_dense != was_dense:
            stats.bump("sparse_rep_switches")
        self.dense_mode = next_dense
        if _faults.fire("dbm_corrupt"):
            _faults.corrupt_sparse_octagon(self)
        _sentinel.check(self)

    def _close_graph(self) -> None:
        self._alias = object()
        n = self.n
        size = 2 * n
        cells = self.cells
        snap = self.snap
        cu = [self._u(i) for i in range(size)]
        # Effective edges: finite explicit binaries, plus snapshot-implied
        # mixes that the *current* unaries no longer dominate (a widened
        # or threshold-bumped unary leaves the old mix as a real
        # constraint, so it must take part in component discovery).
        eff: Dict[Key, float] = {k: v for k, v in cells.items() if v < INF}
        if snap is not None:
            for g in range(size):
                if snap[g] < INF and cu[g] > snap[g]:
                    sg = snap[g]
                    for j in range(size):
                        if j == g or j == (g ^ 1):
                            continue
                        sj = snap[j ^ 1]
                        if sj >= INF:
                            continue
                        k = canon(g, j)
                        if k in cells:
                            continue
                        v = (sg + sj) * 0.5
                        prev = eff.get(k)
                        if prev is None or v < prev:
                            eff[k] = v
        uf = UnionFind(n)
        relational = set()
        for (r, s) in eff:
            vr, vs = r >> 1, s >> 1
            if vr != vs:
                uf.union(vr, vs)
                relational.add(vr)
                relational.add(vs)
        groups: Dict[int, List[int]] = {}
        for v in sorted(relational):
            groups.setdefault(uf.find(v), []).append(v)
        blocks = [sorted(g) for _, g in sorted(groups.items())]
        area = sum((2 * len(b)) ** 2 for b in blocks)
        singles = [v for v in range(n) if v not in relational
                   and (cu[2 * v] < INF or cu[2 * v + 1] < INF)]
        area += 4 * len(singles)
        _budget.charge_cells(area)
        stats.bump("closure_cells", area)
        start = time.perf_counter()
        new_snap = list(cu)
        # Singleton consistency: lo > hi shows up as a negative unary cycle.
        for v in singles:
            lo_hi = cu[2 * v] + cu[2 * v + 1]
            if lo_hi < 0:
                self._become_bottom()
                stats.record_closure(n, str(DbmKind.GRAPH),
                                     time.perf_counter() - start, len(blocks))
                return
        new_cells: Dict[Key, float] = {k: v for k, v in cells.items()
                                       if v < INF and (k[0] >> 1) not in relational}
        max_block = 0
        subs: List[Tuple[List[int], np.ndarray]] = []
        for block in blocks:
            idx = block_indices(block)
            bsize = len(idx)
            max_block = max(max_block, bsize * bsize)
            sub = np.empty((bsize, bsize), dtype=np.float64)
            for a in range(bsize):
                ia = idx[a]
                for b in range(bsize):
                    sub[a, b] = self.val(ia, idx[b])
            if kernels.dense_closure(sub):
                self._become_bottom()
                stats.record_closure(n, str(DbmKind.GRAPH),
                                     time.perf_counter() - start, len(blocks))
                return
            subs.append((idx, sub))
            for a in range(bsize):
                new_snap[idx[a]] = float(sub[a, a ^ 1])
        # Scatter-reduce: keep only cells strictly tighter than what the
        # new unaries imply (unaries live in the snapshot; everything the
        # final strengthening would materialise stays implicit).
        for idx, sub in subs:
            bsize = len(idx)
            for a in range(bsize):
                ia = idx[a]
                sa = new_snap[ia]
                for b in range(bsize):
                    jb = idx[b]
                    if jb == ia or jb > (ia | 1):
                        continue
                    v = float(sub[a, b])
                    if v >= INF:
                        continue
                    sb = new_snap[jb ^ 1]
                    if sa < INF and sb < INF and v >= (sa + sb) * 0.5:
                        continue
                    new_cells[(ia, jb)] = v
        # Drop explicit unary cells of untouched variables into the
        # snapshot too (the snapshot is *all* current unaries).
        for i in range(size):
            new_cells.pop((i, i ^ 1), None)
        elapsed = time.perf_counter() - start
        self.cells = new_cells
        self.snap = new_snap
        self.closed = True
        stats.record_closure(n, str(DbmKind.GRAPH), elapsed, max(len(blocks), 1))
        if trace.enabled():
            trace.emit("closure", start, start + elapsed,
                       args={"n": n, "kind": str(DbmKind.GRAPH),
                             "components": len(blocks),
                             "backend": kernels.active_backend()})
        self._gauges(max_block)

    def _close_densely(self) -> None:
        self._alias = object()
        n = self.n
        area = (2 * n) ** 2
        _budget.charge_cells(area)
        stats.bump("closure_cells", area)
        m = self.to_matrix()
        start = time.perf_counter()
        empty = kernels.dense_closure(m)
        elapsed = time.perf_counter() - start
        stats.record_closure(n, "graph-dense", elapsed, 1)
        if trace.enabled():
            trace.emit("closure", start, start + elapsed,
                       args={"n": n, "kind": "graph-dense",
                             "backend": kernels.active_backend()})
        if empty:
            self._become_bottom()
            return
        self._reduce_from_matrix(m)
        self.closed = True
        self._gauges(area)

    def _reduce_from_matrix(self, m: np.ndarray) -> None:
        """Adopt a *closed* matrix: snapshot its unaries, keep only the
        cells strictly tighter than the strengthening-implied values."""
        size = 2 * self.n
        idx = np.arange(size)
        xor = idx ^ 1
        snap = m[idx, xor]
        implied = (snap[:, None] + snap[xor][None, :]) * 0.5
        keep = np.isfinite(m) & (m < implied)
        keep[idx, idx] = False
        keep &= (idx[None, :] <= (idx[:, None] | 1))  # canonical half only
        rows, cols = np.nonzero(keep)
        self.cells = {(int(r), int(c)): float(m[r, c])
                      for r, c in zip(rows, cols)}
        self.snap = [float(x) for x in snap]

    def _incremental_close(self, v: int) -> None:
        """Re-close after changes confined to variable ``v``."""
        self._alias = object()
        n = self.n
        size = 2 * n
        if self.dense_mode:
            _budget.charge_cells(8 * n)
            stats.bump("closure_cells", 8 * n)
            m = self.to_matrix()
            start = time.perf_counter()
            empty = kernels.incremental_closure(m, v)
            elapsed = time.perf_counter() - start
            stats.record_closure(n, "graph-incremental", elapsed, 1)
            if empty:
                self._become_bottom()
                return
            self._reduce_from_matrix(m)
            self.closed = True
            self._gauges((2 * n) ** 2)
            _sentinel.check(self)
            return
        start = time.perf_counter()
        uf = UnionFind(n)
        for (r, s), val in self.cells.items():
            if val < INF and (r >> 1) != (s >> 1):
                uf.union(r >> 1, s >> 1)
        root = uf.find(v)
        comp = [w for w in range(n) if uf.find(w) == root]
        _budget.charge_cells(8 * len(comp))
        stats.bump("closure_cells", 8 * len(comp))
        if self.snap is None:
            self.snap = [INF] * size
        if len(comp) == 1:
            lo, hi = self._u(2 * v), self._u(2 * v + 1)
            if lo + hi < 0:
                self._become_bottom()
                stats.record_closure(n, "graph-incremental",
                                     time.perf_counter() - start, 1)
                return
            # The kernel's trailing strengthening updates v's mixed
            # cells against every unary-bounded variable; moving the new
            # unaries into the snapshot produces exactly those values
            # lazily.
            self.snap[2 * v] = lo
            self.snap[2 * v + 1] = hi
            self.cells.pop((2 * v, 2 * v + 1), None)
            self.cells.pop((2 * v + 1, 2 * v), None)
        else:
            idx = block_indices(comp)
            bsize = len(idx)
            sub = np.empty((bsize, bsize), dtype=np.float64)
            for a in range(bsize):
                ia = idx[a]
                for b in range(bsize):
                    sub[a, b] = self.val(ia, idx[b])
            empty = kernels.incremental_closure(sub, comp.index(v))
            if empty:
                self._become_bottom()
                stats.record_closure(n, "graph-incremental",
                                     time.perf_counter() - start, 1)
                return
            in_comp = set(comp)
            self.cells = {k: val for k, val in self.cells.items()
                          if (k[0] >> 1) not in in_comp}
            for a in range(bsize):
                self.snap[idx[a]] = float(sub[a, a ^ 1])
            for a in range(bsize):
                ia = idx[a]
                sa = self.snap[ia]
                for b in range(bsize):
                    jb = idx[b]
                    if jb == ia or jb > (ia | 1):
                        continue
                    val = float(sub[a, b])
                    if val >= INF:
                        continue
                    sb = self.snap[jb ^ 1]
                    if sa < INF and sb < INF and val >= (sa + sb) * 0.5:
                        continue
                    self.cells[(ia, jb)] = val
        elapsed = time.perf_counter() - start
        self.closed = True
        stats.record_closure(n, "graph-incremental", elapsed, 1)
        if trace.enabled():
            trace.emit("closure_inc", start, start + elapsed,
                       args={"n": n, "v": v,
                             "backend": kernels.active_backend()})
        self._gauges(4 * len(comp) * len(comp))
        _sentinel.check(self)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def is_bottom(self) -> bool:
        if self._bottom:
            return True
        self.closure()
        return self._bottom

    def is_top(self) -> bool:
        if self.is_bottom():
            return False
        c = self.closure()
        if any(v < INF for v in c.cells.values()):
            return False
        return c.snap is None or all(s >= INF for s in c.snap)

    def is_leq(self, other: "SparseOctagon") -> bool:
        self._check_compat(other)
        if self.is_bottom():
            return True
        if other._bottom:
            return False
        if _cow_enabled() and self._alias is other._alias:
            return True  # aliases denote the same abstract value
        closed = self.closure()
        if self._bottom:
            return True
        with stats.timed_op("is_leq"):
            for k, v in other.cells.items():
                if v >= INF:
                    continue
                if not closed._val_key(k) <= v:
                    return False
            osnap = other.snap
            if osnap is not None:
                size = 2 * self.n
                # Unary dominance: an implied cell of ``other`` is
                # automatically satisfied when both contributing unaries
                # dominate ours; only rows where ours grew need checks.
                for i in range(size):
                    if osnap[i] >= INF or closed._u(i) <= osnap[i]:
                        continue
                    for m in range(size):
                        if osnap[m] >= INF or m == (i ^ 1):
                            continue
                        k = canon(i, m ^ 1)
                        if k in other.cells:
                            continue
                        if not closed._val_key(k) <= (osnap[i] + osnap[m]) * 0.5:
                            return False
            return True

    def is_eq(self, other: "SparseOctagon") -> bool:
        self._check_compat(other)
        if _cow_enabled() and self._alias is other._alias:
            return True
        if self.is_bottom() or other.is_bottom():
            return self.is_bottom() and other.is_bottom()
        a, b = self.closure(), other.closure()
        if self._bottom or other._bottom:
            return self._bottom and other._bottom
        # Closed forms are canonical for a given matrix: the snapshot is
        # the unary vector and the cells the strictly-tighter residue.
        size = 2 * self.n
        au = a.snap if a.snap is not None else [INF] * size
        bu = b.snap if b.snap is not None else [INF] * size
        return au == bu and a.cells == b.cells

    def _check_compat(self, other: "SparseOctagon") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # lattice operators
    # ------------------------------------------------------------------
    def meet(self, other: "SparseOctagon") -> "SparseOctagon":
        """Cellwise min on the raw representations (rare; materialises
        both implied universes -- there is no lazy form of a min of two
        different snapshots)."""
        self._check_compat(other)
        if self._bottom or other._bottom:
            return SparseOctagon.bottom(self.n, policy=self.policy)
        with stats.timed_op("meet"):
            keys = set(self.cells) | set(other.cells)
            for rep in (self, other):
                if rep.snap is None:
                    continue
                finite = [i for i, s in enumerate(rep.snap) if s < INF]
                for i in finite:
                    for m in finite:
                        if m == (i ^ 1):
                            continue
                        keys.add(canon(i, m ^ 1))
            cells: Dict[Key, float] = {}
            for k in keys:
                v = min(self._val_key(k), other._val_key(k))
                if v < INF:
                    cells[k] = v
            result = SparseOctagon(
                self.n, cells, None, closed=False, policy=self.policy,
                dense_mode=self.dense_mode or other.dense_mode)
        _sentinel.check(result)
        return result

    def join(self, other: "SparseOctagon") -> "SparseOctagon":
        self._check_compat(other)
        if _cow_enabled() and self._alias is other._alias:
            return self.copy()  # join is idempotent on aliases
        if self.is_bottom():
            return other.copy()
        if other.is_bottom():
            return self.copy()
        a, b = self.closure(), other.closure()
        if self._bottom:
            return other.copy()
        if other._bottom:
            return self.copy()
        with stats.timed_op("join"):
            size = 2 * self.n
            au = a.snap if a.snap is not None else [INF] * size
            bu = b.snap if b.snap is not None else [INF] * size
            nu = [au[i] if au[i] >= bu[i] else bu[i] for i in range(size)]

            def implied(k: Key) -> float:
                x, y = nu[k[0]], nu[k[1] ^ 1]
                return (x + y) * 0.5 if x < INF and y < INF else INF

            cells: Dict[Key, float] = {}
            for k in set(a.cells) | set(b.cells):
                v = max(a._val_key(k), b._val_key(k))
                if v < INF and v < implied(k):
                    cells[k] = v
            # Implied-only cells survive the max strictly below the
            # joined implication exactly when the unary maxima come from
            # opposite operands.
            plus = [i for i in range(size) if bu[i] < au[i] < INF]
            minus = [i for i in range(size) if au[i] < bu[i] < INF]
            for i in plus:
                for m in minus:
                    if m == (i ^ 1):
                        continue
                    k = canon(i, m ^ 1)
                    if k in a.cells or k in b.cells or k in cells:
                        continue
                    v = max((au[i] + au[m]) * 0.5, (bu[i] + bu[m]) * 0.5)
                    if v < implied(k):
                        cells[k] = v
            result = SparseOctagon(
                self.n, cells, nu, closed=True, policy=self.policy,
                dense_mode=a.dense_mode or b.dense_mode)
        _sentinel.check(result)
        return result

    def widening(self, other: "SparseOctagon") -> "SparseOctagon":
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        b = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            snap = self.snap
            cells: Dict[Key, float] = {}
            for k, v in self.cells.items():
                if v < INF and b._val_key(k) <= v:
                    cells[k] = v
                elif snap is not None and snap[k[0]] < INF \
                        and snap[k[1] ^ 1] < INF:
                    # Unstable (or already-sentinel) cell over a finite
                    # implied value: record the widened-away hole.
                    cells[k] = INF
            if snap is not None:
                # Implied cells are stable automatically unless one of
                # their unaries grew in ``b`` (``b`` is closed, so
                # ``b.val <= implied_b <= implied_snap`` otherwise).
                for g in range(2 * self.n):
                    if snap[g] >= INF or b._u(g) <= snap[g]:
                        continue
                    sg = snap[g]
                    for j in range(2 * self.n):
                        if j == g:
                            continue
                        sj = snap[j ^ 1]
                        if sj >= INF:
                            continue
                        k = canon(g, j)
                        if k in self.cells or k in cells:
                            continue
                        if not b._val_key(k) <= (sg + sj) * 0.5:
                            cells[k] = INF
            result = SparseOctagon(
                self.n, cells, list(snap) if snap is not None else None,
                closed=False, policy=self.policy, dense_mode=self.dense_mode)
        _sentinel.check(result)
        return result

    def widening_thresholds(
        self, other: "SparseOctagon", thresholds: Sequence[float],
    ) -> "SparseOctagon":
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        b = other.closure()
        if other._bottom:
            return self.copy()
        import bisect

        with stats.timed_op("widening"):
            ts = sorted(float(t) for t in thresholds)

            def bumped(bval: float) -> float:
                i = bisect.bisect_left(ts, bval)
                return ts[i] if i < len(ts) else INF

            snap = self.snap
            cells: Dict[Key, float] = {}

            def put(k: Key, value: float) -> None:
                if value < INF:
                    cells[k] = value
                elif snap is not None and snap[k[0]] < INF \
                        and snap[k[1] ^ 1] < INF:
                    cells[k] = INF

            for k, v in self.cells.items():
                bv = b._val_key(k)
                if bv <= v:
                    if v < INF:
                        cells[k] = v
                    else:
                        put(k, INF)
                else:
                    put(k, bumped(bv))
            if snap is not None:
                for g in range(2 * self.n):
                    if snap[g] >= INF or b._u(g) <= snap[g]:
                        continue
                    sg = snap[g]
                    for j in range(2 * self.n):
                        if j == g:
                            continue
                        sj = snap[j ^ 1]
                        if sj >= INF:
                            continue
                        k = canon(g, j)
                        if k in self.cells or k in cells:
                            continue
                        bv = b._val_key(k)
                        if not bv <= (sg + sj) * 0.5:
                            put(k, bumped(bv))
            result = SparseOctagon(
                self.n, cells, list(snap) if snap is not None else None,
                closed=False, policy=self.policy, dense_mode=self.dense_mode)
        _sentinel.check(result)
        return result

    def narrowing(self, other: "SparseOctagon") -> "SparseOctagon":
        self._check_compat(other)
        if self._bottom or other._bottom:
            return SparseOctagon.bottom(self.n, policy=self.policy)
        with stats.timed_op("narrowing"):
            cells = dict(self.cells)
            for k, v in other.cells.items():
                if v < INF and self._val_key(k) >= INF:
                    cells[k] = v
            osnap = other.snap
            if osnap is not None:
                finite = [i for i, s in enumerate(osnap) if s < INF]
                for i in finite:
                    for m in finite:
                        if m == (i ^ 1):
                            continue
                        k = canon(i, m ^ 1)
                        if k in other.cells:
                            continue
                        if self._val_key(k) >= INF:
                            cells[k] = (osnap[i] + osnap[m]) * 0.5
            result = SparseOctagon(
                self.n, cells,
                list(self.snap) if self.snap is not None else None,
                closed=False, policy=self.policy,
                dense_mode=self.dense_mode or other.dense_mode)
        _sentinel.check(result)
        return result

    # ------------------------------------------------------------------
    # constraint meets and tests
    # ------------------------------------------------------------------
    def _meet_constraint_cells(self, cons: OctConstraint) -> None:
        self._alias = object()
        for r, s, c in dbm_cells(cons):
            k = canon(r, s)
            if c < self._val_key(k):
                self.cells[k] = c
        self.closed = False
        self._ccache = None

    def meet_constraint(self, cons: OctConstraint) -> "SparseOctagon":
        if self._bottom:
            return self.copy()
        with stats.timed_op("meet_constraint"):
            base = (self.closure()
                    if self.closed or self._ccache is not None else self)
            out = base.copy()
            was_closed = out.closed
            out._meet_constraint_cells(cons)
            if was_closed:
                out._incremental_close(cons.i)
            else:
                _sentinel.check(out)
        return out

    def meet_constraints(
        self, constraints: Iterable[OctConstraint],
    ) -> "SparseOctagon":
        if self._bottom:
            return self.copy()
        with stats.timed_op("meet_constraint"):
            base = (self.closure()
                    if self.closed or self._ccache is not None else self)
            out = base.copy()
            was_closed = out.closed
            cons_list = list(constraints)
            for cons in cons_list:
                out._meet_constraint_cells(cons)
            if was_closed and cons_list:
                common = set(cons_list[0].variables())
                for cons in cons_list[1:]:
                    common &= set(cons.variables())
                if common:
                    out._incremental_close(min(common))
                else:
                    out.closed = False
                    _sentinel.check(out)
        return out

    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "SparseOctagon":
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return (self.copy() if expr.const <= 0
                    else SparseOctagon.bottom(self.n, policy=self.policy))
        items = sorted(coeffs.items())
        constraints: List[OctConstraint] = []

        def residual_neg_sup(excluded: Tuple[int, ...]) -> float:
            rest = LinExpr({v: c for v, c in coeffs.items() if v not in excluded},
                           expr.const)
            lo, _ = rest.interval(closed.bounds)
            return INF if lo == -INF else -lo

        for v, c in items:
            if c in (1.0, -1.0):
                bound = residual_neg_sup((v,))
                if is_finite(bound):
                    constraints.append(OctConstraint(v, int(c), v, 0, bound))
        for a_idx in range(len(items)):
            va, ca = items[a_idx]
            if ca not in (1.0, -1.0):
                continue
            for b_idx in range(a_idx + 1, len(items)):
                vb, cb = items[b_idx]
                if cb not in (1.0, -1.0):
                    continue
                bound = residual_neg_sup((va, vb))
                if is_finite(bound):
                    constraints.append(OctConstraint(va, int(ca), vb, int(cb), bound))
        if not constraints:
            return self.copy()
        return closed.meet_constraints(constraints)

    def sat_constraint(self, cons: OctConstraint) -> bool:
        if self.is_bottom():
            return True
        closed = self.closure()
        if self._bottom:
            return True
        (r, s, c) = dbm_cells(cons)[0]
        return bool(closed.val(r, s) <= c)

    # ------------------------------------------------------------------
    # projections and assignments
    # ------------------------------------------------------------------
    def forget(self, v: int) -> "SparseOctagon":
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        with stats.timed_op("forget"):
            out = closed.copy()
            out._ccache = None
            out._alias = object()
            out.cells = {k: val for k, val in out.cells.items()
                         if (k[0] >> 1) != v and (k[1] >> 1) != v}
            if out.snap is not None:
                out.snap[2 * v] = INF
                out.snap[2 * v + 1] = INF
            out.closed = True  # dropping rows of a closed DBM keeps it closed
        _sentinel.check(out)
        return out

    def assign_const(self, v: int, c: float) -> "SparseOctagon":
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            out._meet_constraint_cells(OctConstraint.upper(v, c))
            out._meet_constraint_cells(OctConstraint.lower(v, c))
            out._incremental_close(v)
        return out

    def assign_interval(self, v: int, lo: float, hi: float) -> "SparseOctagon":
        if lo > hi:
            return SparseOctagon.bottom(self.n, policy=self.policy)
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            changed = False
            if hi != INF:
                out._meet_constraint_cells(OctConstraint.upper(v, hi))
                changed = True
            if lo != -INF:
                out._meet_constraint_cells(OctConstraint.lower(v, lo))
                changed = True
            if changed:
                out._incremental_close(v)
        return out

    def assign_translate(self, v: int, c: float) -> "SparseOctagon":
        """``v := v + c`` -- exact, linear in the stored cells."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            out._ccache = None
            out._alias = object()
            p0, p1 = 2 * v, 2 * v + 1
            cells: Dict[Key, float] = {}
            for (r, s), val in out.cells.items():
                # Mirror the dense row/column shifts in order, so even
                # non-dyadic offsets stay bit-identical.
                if val < INF:
                    if r == p0:
                        val = val - c
                    if r == p1:
                        val = val + c
                    if s == p0:
                        val = val + c
                    if s == p1:
                        val = val - c
                cells[(r, s)] = val
            out.cells = cells
            if out.snap is not None:
                if out.snap[p0] < INF:
                    out.snap[p0] = (out.snap[p0] - c) - c
                if out.snap[p1] < INF:
                    out.snap[p1] = (out.snap[p1] + c) + c
        _sentinel.check(out)
        return out

    def assign_negate(self, v: int, c: float = 0.0) -> "SparseOctagon":
        """``v := -v + c`` -- swap the signs of ``v`` then shift."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            out._ccache = None
            out._alias = object()

            def sw(i: int) -> int:
                return i ^ 1 if (i >> 1) == v else i

            out.cells = {canon(sw(r), sw(s)): val
                         for (r, s), val in out.cells.items()}
            if out.snap is not None:
                p0, p1 = 2 * v, 2 * v + 1
                out.snap[p0], out.snap[p1] = out.snap[p1], out.snap[p0]
        if c != 0.0:
            return out.assign_translate(v, c)
        _sentinel.check(out)
        return out

    def assign_var(self, v: int, w: int, *, coeff: int = 1,
                   offset: float = 0.0) -> "SparseOctagon":
        if coeff not in (-1, 1):
            raise ValueError("octagonal assignment needs coeff +-1")
        if w == v:
            if coeff == 1:
                return self.assign_translate(v, offset)
            return self.assign_negate(v, offset)
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            out._meet_constraint_cells(OctConstraint(v, 1, w, -coeff, offset))
            out._meet_constraint_cells(OctConstraint(v, -1, w, coeff, -offset))
            out._incremental_close(v)
        return out

    def assign_linexpr(self, v: int, expr: LinExpr) -> "SparseOctagon":
        coeffs = {w: c for w, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return self.assign_const(v, expr.const)
        if len(coeffs) == 1:
            ((w, c),) = coeffs.items()
            if c in (1.0, -1.0):
                return self.assign_var(v, w, coeff=int(c), offset=expr.const)
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        lo, hi = expr.interval(closed.bounds)
        relational: List[Tuple[int, int, float, float]] = []
        for w, c in coeffs.items():
            if w == v or c not in (1.0, -1.0):
                continue
            rest = LinExpr({u: cu for u, cu in coeffs.items() if u != w}, expr.const)
            rlo, rhi = rest.interval(closed.bounds)
            relational.append((w, int(c), rlo, rhi))
        out = closed.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            changed = False
            if hi != INF:
                out._meet_constraint_cells(OctConstraint.upper(v, hi))
                changed = True
            if lo != -INF:
                out._meet_constraint_cells(OctConstraint.lower(v, lo))
                changed = True
            for w, c, rlo, rhi in relational:
                if rhi != INF:
                    out._meet_constraint_cells(OctConstraint(v, 1, w, -c, rhi))
                    changed = True
                if rlo != -INF:
                    out._meet_constraint_cells(OctConstraint(v, -1, w, c, -rlo))
                    changed = True
            if changed:
                out._incremental_close(v)
        return out

    def substitute_linexpr(self, v: int, expr: LinExpr) -> "SparseOctagon":
        """Backward assignment via the temporary-dimension construction
        (mirrors the dense implementation step for step)."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("substitute"):
            t = self.n
            ext = self.add_dimensions(1)
            perm = list(range(ext.n))
            perm[v], perm[t] = perm[t], perm[v]
            ext = ext.permute(perm)
            coeffs = {w: c for w, c in expr.coeffs.items() if c != 0.0}
            constraints: List[OctConstraint] = []
            if not coeffs:
                constraints.append(OctConstraint.upper(t, expr.const))
                constraints.append(OctConstraint.lower(t, expr.const))
            elif len(coeffs) == 1 and next(iter(coeffs.values())) in (1.0, -1.0):
                ((w, c),) = coeffs.items()
                constraints.append(OctConstraint(t, 1, w, -int(c), expr.const))
                constraints.append(OctConstraint(t, -1, w, int(c), -expr.const))
            else:
                closed = ext.closure()
                if ext._bottom:
                    return SparseOctagon.bottom(self.n, policy=self.policy)
                lo, hi = expr.interval(closed.bounds)
                if hi != INF:
                    constraints.append(OctConstraint(t, 1, t, 0, hi))
                if lo != -INF:
                    constraints.append(OctConstraint(t, -1, t, 0, -lo))
                for w, c in coeffs.items():
                    if c not in (1.0, -1.0):
                        continue
                    rest = LinExpr({u: cu for u, cu in coeffs.items() if u != w},
                                   expr.const)
                    rlo, rhi = rest.interval(closed.bounds)
                    if rhi != INF:
                        constraints.append(OctConstraint(t, 1, w, -int(c), rhi))
                    if rlo != -INF:
                        constraints.append(OctConstraint(t, -1, w, int(c), -rlo))
            if constraints:
                ext = ext.meet_constraints(constraints)
        return ext.remove_dimensions([t])

    def substitute_var(self, v: int, w: int, *, coeff: int = 1,
                       offset: float = 0.0) -> "SparseOctagon":
        return self.substitute_linexpr(v, LinExpr({w: float(coeff)}, offset))

    def substitute_const(self, v: int, c: float) -> "SparseOctagon":
        return self.substitute_linexpr(v, LinExpr({}, c))

    def tighten_integers(self) -> "SparseOctagon":
        """Integer tightening (Mine 2006); materialises once.

        This operator has no call site on the analysis hot path (the
        transfer functions build integer-mode constraints directly), so
        it pragmatically runs on a materialised matrix and wraps the
        result raw -- the next closure re-sparsifies it.
        """
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        with stats.timed_op("tighten"):
            from ..core.strengthen import (
                is_bottom_numpy,
                reset_diagonal_numpy,
                tighten_integer_numpy,
            )
            m = closed.to_matrix()
            finite = np.isfinite(m)
            m[finite] = np.floor(m[finite])
            tighten_integer_numpy(m)
            kernels.strengthen(m)
            if is_bottom_numpy(m):
                return SparseOctagon.bottom(self.n, policy=self.policy)
            reset_diagonal_numpy(m)
            out = SparseOctagon.from_matrix(m, policy=self.policy)
            out.dense_mode = self.dense_mode
        _sentinel.check(out)
        return out

    # ------------------------------------------------------------------
    # bounds and export
    # ------------------------------------------------------------------
    def bounds(self, v: int) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        closed = self.closure()
        if self._bottom:
            return (INF, -INF)
        ub2 = closed._u(2 * v + 1)  # 2v <= ub2
        lb2 = closed._u(2 * v)      # -2v <= lb2
        hi = INF if not is_finite(ub2) else ub2 / 2.0
        lo = -INF if not is_finite(lb2) else -lb2 / 2.0
        return (lo, hi)

    def bound_linexpr(self, expr: LinExpr) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        closed = self.closure()
        if self._bottom:
            return (INF, -INF)
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if len(coeffs) == 2 and all(c in (1.0, -1.0) for c in coeffs.values()):
            (va, ca), (vb, cb) = sorted(coeffs.items())
            hi_cells = dbm_cells(OctConstraint(va, int(ca), vb, int(cb), 0.0))
            lo_cells = dbm_cells(OctConstraint(va, -int(ca), vb, -int(cb), 0.0))
            hi_raw = closed.val(hi_cells[0][0], hi_cells[0][1])
            lo_raw = closed.val(lo_cells[0][0], lo_cells[0][1])
            hi = INF if not is_finite(hi_raw) else hi_raw + expr.const
            lo = -INF if not is_finite(lo_raw) else -lo_raw + expr.const
            ilo, ihi = expr.interval(closed.bounds)
            return (max(lo, ilo), min(hi, ihi))
        return expr.interval(closed.bounds)

    def to_box(self) -> List[Tuple[float, float]]:
        return [self.bounds(v) for v in range(self.n)]

    def to_constraints(self) -> List[OctConstraint]:
        if self.is_bottom():
            return []
        c = self.closure()
        out: List[OctConstraint] = []
        emitted = set()
        for k, v in sorted(c.cells.items()):
            if v < INF:
                emitted.add(k)
                out.append(constraint_of_cell(k[0], k[1], v))
        snap = c.snap
        if snap is not None:
            finite = [i for i, s in enumerate(snap) if s < INF]
            for i in finite:
                for m in finite:
                    if m == (i ^ 1):
                        continue
                    k = canon(i, m ^ 1)
                    if k in c.cells or k in emitted:
                        continue
                    emitted.add(k)
                    out.append(constraint_of_cell(
                        k[0], k[1], (snap[k[0]] + snap[k[1] ^ 1]) * 0.5))
        return out

    def contains_point(self, values: Sequence[float], *,
                       tol: float = 1e-9) -> bool:
        if self._bottom:
            return False
        if len(values) != self.n:
            raise ValueError("point dimension mismatch")
        vals = np.asarray(values, dtype=np.float64)
        vhat = np.empty(2 * self.n)
        vhat[0::2] = vals
        vhat[1::2] = -vals
        diff = vhat[None, :] - vhat[:, None]
        m = self.to_matrix()
        finite = np.isfinite(m)
        return bool(np.all(diff[finite] <= m[finite] + tol))

    # ------------------------------------------------------------------
    # dimension management
    # ------------------------------------------------------------------
    def add_dimensions(self, k: int) -> "SparseOctagon":
        if k < 0:
            raise ValueError("cannot add a negative number of dimensions")
        snap = (self.snap + [INF] * (2 * k)) if self.snap is not None else None
        return SparseOctagon(
            self.n + k, dict(self.cells), snap, closed=self.closed,
            bottom=self._bottom, policy=self.policy, dense_mode=self.dense_mode)

    def remove_dimensions(self, variables: Sequence[int]) -> "SparseOctagon":
        drop = sorted(set(variables))
        if any(not 0 <= v < self.n for v in drop):
            raise ValueError("variable out of range")
        cur = self
        for v in drop:
            cur = cur.forget(v)
        keep = [v for v in range(self.n) if v not in set(drop)]
        remap = {v: i for i, v in enumerate(keep)}

        def re(i: int) -> int:
            return 2 * remap[i >> 1] | (i & 1)

        # The remap is monotone and parity-preserving, so canonical keys
        # stay canonical.
        cells = {(re(r), re(s)): val for (r, s), val in cur.cells.items()}
        snap = None
        if cur.snap is not None:
            snap = [cur.snap[2 * v + p] for v in keep for p in (0, 1)]
        return SparseOctagon(
            len(keep), cells, snap, closed=cur.closed, bottom=cur._bottom,
            policy=self.policy, dense_mode=cur.dense_mode)

    def expand(self, v: int, k: int) -> "SparseOctagon":
        if k <= 0:
            raise ValueError("expand needs at least one copy")
        if self._bottom:
            return SparseOctagon.bottom(self.n + k, policy=self.policy)
        closed = self.closure()
        if self._bottom:
            return SparseOctagon.bottom(self.n + k, policy=self.policy)
        out = closed.add_dimensions(k)
        out._ccache = None
        src = (2 * v, 2 * v + 1)
        copies = list(range(self.n, self.n + k))
        for dstv in copies:
            dst = (2 * dstv, 2 * dstv + 1)

            def re(i: int) -> int:
                return dst[i & 1] if (i >> 1) == v else i

            # Explicit constraints of v against the original variables.
            for (r, s), val in closed.cells.items():
                rv, sv = r >> 1, s >> 1
                if (rv == v) == (sv == v):
                    continue
                out.cells[canon(re(r), re(s))] = val
            if out.snap is not None:
                out.snap[dst[0]] = out.snap[src[0]]
                out.snap[dst[1]] = out.snap[src[1]]
        if out.snap is not None:
            # The copies are unrelated to v and to each other: the dense
            # backend writes INF there, so the snapshot-implied mixes
            # must be masked with sentinels.
            groups = [src] + [(2 * d, 2 * d + 1) for d in copies]
            for ai in range(len(groups)):
                for bi in range(ai + 1, len(groups)):
                    for x in groups[ai]:
                        for y in groups[bi]:
                            kk = canon(x, y)
                            if out.snap[kk[0]] < INF and out.snap[kk[1] ^ 1] < INF:
                                out.cells[kk] = INF
        out.closed = False
        return out

    def fold(self, variables: Sequence[int]) -> "SparseOctagon":
        folded = list(dict.fromkeys(variables))
        if len(folded) < 2:
            raise ValueError("fold needs at least two variables")
        if any(not 0 <= v < self.n for v in folded):
            raise ValueError("variable out of range")
        if self._bottom:
            keep_n = self.n - (len(folded) - 1)
            return SparseOctagon.bottom(keep_n, policy=self.policy)
        closed = self.closure()
        if self._bottom:
            keep_n = self.n - (len(folded) - 1)
            return SparseOctagon.bottom(keep_n, policy=self.policy)
        target = folded[0]
        others = folded[1:]
        acc = closed
        for w in others:
            perm = list(range(self.n))
            perm[target], perm[w] = perm[w], perm[target]
            acc = acc.join(closed.permute(perm))
        return acc.remove_dimensions(others)

    def permute(self, perm: Sequence[int]) -> "SparseOctagon":
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        inv = {old: new for new, old in enumerate(perm)}

        def re(i: int) -> int:
            return 2 * inv[i >> 1] | (i & 1)

        cells = {canon(re(r), re(s)): val for (r, s), val in self.cells.items()}
        snap = None
        if self.snap is not None:
            snap = [self.snap[2 * perm[v] + p]
                    for v in range(self.n) for p in (0, 1)]
        return SparseOctagon(
            self.n, cells, snap, closed=self.closed, bottom=self._bottom,
            policy=self.policy, dense_mode=self.dense_mode)

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_bottom():
            return "false"
        cons = self.to_constraints()
        if not cons:
            return "true"
        if names is None:
            names = [f"v{i}" for i in range(self.n)]

        def term(coeff: int, v: int) -> str:
            return f"{'-' if coeff < 0 else '+'}{names[v]}"

        lines = []
        for c in sorted(cons, key=lambda c: (c.i, c.j, c.coeff_i, c.coeff_j)):
            if c.coeff_j == 0:
                lines.append(f"{term(c.coeff_i, c.i)} <= {c.bound:g}")
            else:
                lines.append(f"{term(c.coeff_i, c.i)} {term(c.coeff_j, c.j)}"
                             f" <= {c.bound:g}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self._bottom:
            return f"SparseOctagon(n={self.n}, bottom)"
        return (f"SparseOctagon(n={self.n}, kind={self.kind}, "
                f"cells={len(self.cells)}, closed={self.closed})")


class ConfiguredSparseOctagonFactory:
    """A sparse-octagon factory with a custom switching policy.

    Used by ``--sparse-threshold`` and the threshold-sweep benchmarks:
    the policy travels with the factory so every state the analyzer
    builds (tops, bottoms, initial boxes) shares it.
    """

    __slots__ = ("policy", "name")

    def __init__(self, policy: GraphPolicy, name: str = "sparse-octagon"):
        self.policy = policy
        self.name = name

    def top(self, n: int) -> SparseOctagon:
        return SparseOctagon.top(n, policy=self.policy)

    def bottom(self, n: int) -> SparseOctagon:
        return SparseOctagon.bottom(n, policy=self.policy)

    def from_box(self, bounds) -> SparseOctagon:
        return SparseOctagon.from_box(bounds, policy=self.policy)


__all__ = ["ConfiguredSparseOctagonFactory", "SparseOctagon"]
