"""The Zone abstract domain (difference-bound matrices).

Zones track constraints of the form ``v - w <= c``, ``v <= c`` and
``-v <= c`` -- the octagon's little sibling (no ``v + w`` sums).  The
paper's conclusion proposes carrying its optimisation approach to other
domains; this module does exactly that for zones:

* the DBM is an ``(n+1) x (n+1)`` matrix over the variables plus the
  special *zero* variable ``Z`` (index 0), with ``m[i, j] = c`` meaning
  ``x_j - x_i <= c`` (``x_0 = 0``);
* canonicalisation is plain Floyd-Warshall shortest paths (no
  strengthening step -- zones need no coherence machinery), vectorised
  exactly like the octagon's dense closure;
* the same *online decomposition* applies: variables unrelated by any
  finite constraint split into independent components, closure runs per
  component, and the partition is maintained across operators with
  union/intersection and refreshed exactly at closures.

The class implements the same protocol as the other domains, so the
analyzer runs on zones unchanged (``get_domain("zone")``).

One semantic caveat mirrors the octagon's bounded-variable effect:
any two variables with finite bounds are related *through Z*, so
decomposition pays on workloads where widening erases bounds.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import stats
from ..core.bounds import INF, is_finite
from ..core.constraints import LinExpr, OctConstraint
from ..core.cow import CowMat, is_enabled as _cow_enabled
from ..core.partition import Partition, _connected_components


def _new_top(n: int) -> np.ndarray:
    m = np.full((n + 1, n + 1), INF, dtype=np.float64)
    np.fill_diagonal(m, 0.0)
    return m


def _close(m: np.ndarray) -> bool:
    """Floyd-Warshall; True iff a negative cycle exists (empty zone)."""
    dim = m.shape[0]
    for k in range(dim):
        np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
    if bool((np.diagonal(m) < 0.0).any()):
        return True
    np.fill_diagonal(m, 0.0)
    return False


def _close_decomposed(m: np.ndarray, partition: Partition) -> bool:
    """Per-component Floyd-Warshall (indices shifted by the Z column).

    Sound for the same reason as the octagon's decomposed shortest
    path: transitive minimisation cannot relate variables that share no
    finite constraint.  The Z row/column participates in every
    component (bounds route through Z), so each submatrix includes
    index 0.
    """
    for block in partition.blocks:
        idx = np.array([0] + [v + 1 for v in block], dtype=np.intp)
        gather = np.ix_(idx, idx)
        sub = np.ascontiguousarray(m[gather])
        dim = sub.shape[0]
        for k in range(dim):
            np.minimum(sub, sub[:, k, None] + sub[None, k, :], out=sub)
        m[gather] = sub
    if bool((np.diagonal(m) < 0.0).any()):
        return True
    np.fill_diagonal(m, 0.0)
    return False


def _partition_from_matrix(m: np.ndarray) -> Partition:
    """Exact components: variables related by finite entries.

    Entries against Z (bounds) do not relate two variables directly,
    but two *bounded* variables are transitively related through Z in a
    closed matrix anyway (``v - w <= ub(v) - lb(w)`` becomes a direct
    finite entry), so reading the variable-variable block suffices.
    """
    n = m.shape[0] - 1
    finite = np.isfinite(m[1:, 1:])
    np.fill_diagonal(finite, False)
    adj = finite | finite.T
    # Bounded variables form their own support through Z.
    bounded = np.isfinite(m[0, 1:]) | np.isfinite(m[1:, 0])
    support = adj.any(axis=1) | bounded
    if not support.any():
        return Partition.empty(n)
    return Partition.from_components(_connected_components(adj), support)


class Zone:
    """A zone (DBM) over ``n`` program variables, with decomposition."""

    __slots__ = ("n", "_cow", "partition", "closed", "_bottom", "_ccache",
                 "_ccache_version", "decompose")

    def __init__(self, n: int, mat: Union[np.ndarray, CowMat],
                 partition: Partition, *,
                 closed: bool = False, bottom: bool = False,
                 decompose: bool = True):
        self.n = n
        self._cow = mat if isinstance(mat, CowMat) else CowMat(mat)
        self.partition = partition
        self.closed = closed
        self._bottom = bottom
        self._ccache: Optional["Zone"] = None
        self._ccache_version = -1
        self.decompose = decompose

    # ------------------------------------------------------------------
    # copy-on-write storage (same discipline as Octagon)
    # ------------------------------------------------------------------
    @property
    def mat(self) -> np.ndarray:
        """The DBM (may be shared with aliases; use :meth:`_write_mat`
        before any in-place mutation)."""
        return self._cow.arr

    @mat.setter
    def mat(self, arr: np.ndarray) -> None:
        self._cow = arr if isinstance(arr, CowMat) else CowMat(arr)

    def _write_mat(self) -> np.ndarray:
        self._ccache = None
        return self._cow.written()

    def _cached_closure(self) -> Optional["Zone"]:
        cc = self._ccache
        if cc is not None and self._ccache_version == self._cow.version:
            return cc
        return None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls, n: int) -> "Zone":
        return cls(n, _new_top(n), Partition.empty(n), closed=True)

    @classmethod
    def bottom(cls, n: int) -> "Zone":
        return cls(n, _new_top(n), Partition.empty(n), closed=True, bottom=True)

    @classmethod
    def from_box(cls, bounds: Sequence[Tuple[float, float]]) -> "Zone":
        n = len(bounds)
        zone = cls.top(n)
        for v, (lo, hi) in enumerate(bounds):
            if lo > hi:
                return cls.bottom(n)
            if hi != INF:
                zone.mat[0, v + 1] = hi  # x_v - Z <= hi
            if lo != -INF:
                zone.mat[v + 1, 0] = -lo  # Z - x_v <= -lo
            if lo != -INF or hi != INF:
                zone.partition = zone.partition.merge_blocks_containing([v])
        zone.closed = False
        return zone

    def copy(self) -> "Zone":
        """O(1) aliasing copy; the partition is shared (immutable by
        convention) and a valid cached closed form is carried over."""
        part = self.partition if _cow_enabled() else self.partition.copy()
        out = Zone(self.n, self._cow.clone(), part,
                   closed=self.closed, bottom=self._bottom,
                   decompose=self.decompose)
        if _cow_enabled():
            out._ccache = self._ccache
            out._ccache_version = self._ccache_version
        return out

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def closure(self) -> "Zone":
        """Cached closed copy; the original matrix is preserved."""
        if self._bottom or self.closed:
            return self
        cc = self._cached_closure()
        if cc is not None:
            stats.bump("closure_cache_hits")
            return cc
        out = self.copy()
        with stats.timed_op("closure", n=self.n, kind="zone",
                            components=len(self.partition.blocks)):
            use_decomposed = (self.decompose and self.partition.blocks and
                              len(self.partition.support) < self.n)
            if self.partition.is_empty():
                empty = False
            elif use_decomposed:
                empty = _close_decomposed(out._write_mat(), self.partition)
            else:
                empty = _close(out._write_mat())
        if empty:
            self._become_bottom()
            return self
        out.partition = (_partition_from_matrix(out.mat) if self.decompose
                         else Partition.single_block(self.n))
        out.closed = True
        self._ccache = out
        self._ccache_version = self._cow.version
        return out

    def close(self) -> "Zone":
        return self.closure()

    def _become_bottom(self) -> None:
        self._bottom = True
        self.closed = True
        self.mat = _new_top(self.n)
        self.partition = Partition.empty(self.n)
        self._ccache = None

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
        off = ~np.eye(self.n + 1, dtype=bool)
        return bool(np.all(np.isinf(c.mat[off])))

    def is_leq(self, other: "Zone") -> bool:
        self._check(other)
        if _cow_enabled() and self._cow.arr is other._cow.arr:
            return True  # COW aliases denote the same abstract value
        if self.is_bottom():
            return True
        if other._bottom:
            return False
        closed = self.closure()
        if self._bottom:
            return True
        return bool(np.all(closed.mat <= other.mat))

    def is_eq(self, other: "Zone") -> bool:
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return self.is_bottom() and other.is_bottom()
        a, b = self.closure(), other.closure()
        if self._bottom or other._bottom:
            return self._bottom and other._bottom
        fa, fb = np.isfinite(a.mat), np.isfinite(b.mat)
        return bool(np.array_equal(fa, fb) and
                    np.allclose(a.mat[fa], b.mat[fb]))

    def _check(self, other: "Zone") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # lattice
    # ------------------------------------------------------------------
    def meet(self, other: "Zone") -> "Zone":
        self._check(other)
        if self._bottom or other._bottom:
            return Zone.bottom(self.n)
        with stats.timed_op("meet"):
            out = np.minimum(self.mat, other.mat)
            part = self.partition.union(other.partition)
            return Zone(self.n, out, part, decompose=self.decompose)

    def join(self, other: "Zone") -> "Zone":
        self._check(other)
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
            out = np.maximum(a.mat, b.mat)
            part = a.partition.intersection(b.partition)
            return Zone(self.n, out, part, closed=True, decompose=self.decompose)

    def widening(self, other: "Zone") -> "Zone":
        self._check(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        b = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            out = np.where(b.mat <= self.mat, self.mat, INF)
            np.fill_diagonal(out, 0.0)
            part = self.partition.intersection(b.partition)
            return Zone(self.n, out, part, decompose=self.decompose)

    def narrowing(self, other: "Zone") -> "Zone":
        self._check(other)
        if self._bottom or other._bottom:
            return Zone.bottom(self.n)
        with stats.timed_op("narrowing"):
            out = np.where(np.isinf(self.mat), other.mat, self.mat)
            part = self.partition.union(other.partition)
            return Zone(self.n, out, part, decompose=self.decompose)

    # ------------------------------------------------------------------
    # transfer
    # ------------------------------------------------------------------
    def forget(self, v: int) -> "Zone":
        if self.is_bottom():
            return self.copy()
        out = self.closure().copy()
        with stats.timed_op("forget"):
            m = out._write_mat()
            m[v + 1, :] = INF
            m[:, v + 1] = INF
            m[v + 1, v + 1] = 0.0
            out.partition = out.partition.remove_var(v)
            out.closed = True
        return out

    def assign_const(self, v: int, c: float) -> "Zone":
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            m = out._write_mat()
            m[0, v + 1] = c
            m[v + 1, 0] = -c
            out.partition = out.partition.merge_blocks_containing([v])
            out.closed = False
        return out

    def assign_interval(self, v: int, lo: float, hi: float) -> "Zone":
        if lo > hi:
            return Zone.bottom(self.n)
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            changed = False
            if hi != INF or lo != -INF:
                m = out._write_mat()
                if hi != INF:
                    m[0, v + 1] = hi
                    changed = True
                if lo != -INF:
                    m[v + 1, 0] = -lo
                    changed = True
            if changed:
                out.partition = out.partition.merge_blocks_containing([v])
                out.closed = False
        return out

    def assign_var(self, v: int, w: int, *, coeff: int = 1,
                   offset: float = 0.0) -> "Zone":
        if coeff == -1:
            # Negation leaves the zone fragment: interval fallback.
            lo, hi = self.bounds(w)
            nlo = -hi + offset if hi != INF else -INF
            nhi = -lo + offset if lo != -INF else INF
            return self.assign_interval(v, nlo, nhi)
        if v == w:  # translation: v := v + offset, exact
            if self._bottom:
                return self.copy()
            out = self.copy()
            with stats.timed_op("assign"):
                # m[i, j] bounds x_j - x_i; substituting x_i = x_i' - off
                # shifts row i down by off and column i up by off.
                i = v + 1
                m = out._write_mat()
                fin_row = np.isfinite(m[i, :])
                fin_col = np.isfinite(m[:, i])
                m[i, fin_row] -= offset
                m[fin_col, i] += offset
                m[i, i] = 0.0
            return out
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            m = out._write_mat()
            m[w + 1, v + 1] = offset  # v - w <= offset
            m[v + 1, w + 1] = -offset
            out.partition = out.partition.merge_blocks_containing([v, w])
            out.closed = False
        return out

    def assign_linexpr(self, v: int, expr: LinExpr) -> "Zone":
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
        # Relational refinement for +1-coefficient terms: v - w in rest.
        relational: List[Tuple[int, float, float]] = []
        for w, c in coeffs.items():
            if w == v or c != 1.0:
                continue
            rest = LinExpr({u: cu for u, cu in coeffs.items() if u != w},
                           expr.const)
            rlo, rhi = rest.interval(closed.bounds)
            relational.append((w, rlo, rhi))
        out = closed.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            touched = [v]
            m = out._write_mat()
            if hi != INF:
                m[0, v + 1] = hi
            if lo != -INF:
                m[v + 1, 0] = -lo
            for w, rlo, rhi in relational:
                if rhi != INF:
                    m[w + 1, v + 1] = min(m[w + 1, v + 1], rhi)
                    touched.append(w)
                if rlo != -INF:
                    m[v + 1, w + 1] = min(m[v + 1, w + 1], -rlo)
                    touched.append(w)
            out.partition = out.partition.merge_blocks_containing(touched)
            out.closed = False
        return out

    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "Zone":
        """Meet with ``expr <= 0``; difference shapes are exact."""
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return self.copy() if expr.const <= 0 else Zone.bottom(self.n)
        out = closed.copy()
        changed = False
        with stats.timed_op("meet_constraint"):
            items = sorted(coeffs.items())
            # v - w <= c (exact zone constraint)
            if len(items) == 2 and items[0][1] == -items[1][1] and \
                    abs(items[0][1]) == 1.0:
                (va, ca), (vb, _) = items
                pos, neg = (va, vb) if ca == 1.0 else (vb, va)
                m = out._write_mat()
                m[neg + 1, pos + 1] = min(m[neg + 1, pos + 1], -expr.const)
                out.partition = out.partition.merge_blocks_containing([pos, neg])
                changed = True
            else:
                m = None
                for v, c in items:
                    rest = LinExpr({u: cu for u, cu in coeffs.items() if u != v},
                                   expr.const)
                    rlo, _ = rest.interval(closed.bounds)
                    if rlo == -INF:
                        continue
                    if m is None:
                        m = out._write_mat()
                    limit = -rlo / c
                    if c > 0:
                        m[0, v + 1] = min(m[0, v + 1], limit)
                    else:
                        m[v + 1, 0] = min(m[v + 1, 0], -limit)
                    out.partition = out.partition.merge_blocks_containing([v])
                    changed = True
            if changed:
                out.closed = False
        return out

    def meet_constraint(self, cons: OctConstraint) -> "Zone":
        coeffs = {cons.i: float(cons.coeff_i)}
        if cons.coeff_j != 0:
            coeffs[cons.j] = coeffs.get(cons.j, 0.0) + float(cons.coeff_j)
        return self.assume_linear(LinExpr(coeffs, -cons.bound))

    def meet_constraints(self, constraints: Iterable[OctConstraint]) -> "Zone":
        out = self
        for cons in constraints:
            out = out.meet_constraint(cons)
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bounds(self, v: int) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        c = self.closure()
        if self._bottom:
            return (INF, -INF)
        hi = c.mat[0, v + 1]
        lo = c.mat[v + 1, 0]
        return (-lo if is_finite(lo) else -INF, hi if is_finite(hi) else INF)

    def bound_linexpr(self, expr: LinExpr) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        c = self.closure()
        if self._bottom:
            return (INF, -INF)
        coeffs = {v: k for v, k in expr.coeffs.items() if k != 0.0}
        items = sorted(coeffs.items())
        if len(items) == 2 and items[0][1] == -items[1][1] and \
                abs(items[0][1]) == 1.0:
            (va, ca), (vb, _) = items
            pos, neg = (va, vb) if ca == 1.0 else (vb, va)
            hi = c.mat[neg + 1, pos + 1]
            lo = c.mat[pos + 1, neg + 1]
            ilo, ihi = expr.interval(c.bounds)
            return (max(-lo + expr.const if is_finite(lo) else -INF, ilo),
                    min(hi + expr.const if is_finite(hi) else INF, ihi))
        return expr.interval(c.bounds)

    def to_box(self) -> List[Tuple[float, float]]:
        return [self.bounds(v) for v in range(self.n)]

    def contains_point(self, values: Sequence[float], *, tol: float = 1e-9) -> bool:
        if self._bottom:
            return False
        ext = np.concatenate([[0.0], np.asarray(values, dtype=np.float64)])
        # nan (inf - inf) violates nothing; see Octagon.contains_point.
        with np.errstate(invalid="ignore"):
            diff = ext[None, :] - ext[:, None]
        finite = np.isfinite(self.mat)
        return not np.any(diff[finite] > self.mat[finite] + tol)

    def __repr__(self) -> str:
        if self._bottom:
            return f"Zone(n={self.n}, bottom)"
        return (f"Zone(n={self.n}, components={len(self.partition.blocks)}, "
                f"closed={self.closed})")
