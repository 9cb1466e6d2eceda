"""The baseline: an APRON-faithful scalar octagon implementation.

This class reproduces the *original* APRON octagon domain that the
paper measures against: the half-matrix flat-array layout, Algorithm 2
closure (two mins per entry per outer iteration), scalar element-wise
lattice operators, no decomposition, no sparsity exploitation and no
vectorisation.  In this reproduction it plays the role APRON's C code
plays in the paper -- the unoptimised reference whose operation
structure is identical to the optimised library's but whose inner loops
are interpreted scalar code.

It exposes the same public interface as
:class:`repro.core.octagon.Octagon` (duck-typed; the analyzer substrate
is generic over either), so benchmarks can run identical workloads
through both implementations.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from . import kernels
from . import stats
from .bounds import INF, is_finite
from .constraints import LinExpr, OctConstraint, constraint_of_cell, dbm_cells
from .halfmat import HalfMat
from .indexing import cap
from .strengthen import is_bottom_half, reset_diagonal_half, strengthen_scalar


def _incremental_closure_half(m: HalfMat, v: int) -> bool:
    """Scalar quadratic incremental closure on the half layout.

    Mirrors APRON's ``hmat_close_incremental``: refresh the lines of
    ``v`` against the closed remainder, fix the +v/-v interplay, one
    pivot-pair sweep, then strengthening.  Returns True iff bottom.
    """
    n = m.n
    dim = 2 * n
    p0, p1 = 2 * v, 2 * v + 1
    get = m.get
    # Phase 1: exact distances out of +v / -v.
    d0 = [INF] * dim
    d1 = [INF] * dim
    for j in range(dim):
        best0 = get(p0, j)
        best1 = get(p1, j)
        for x in range(dim):
            xj = get(x, j)
            if xj == INF:
                continue
            c = get(p0, x)
            if c != INF and c + xj < best0:
                best0 = c + xj
            c = get(p1, x)
            if c != INF and c + xj < best1:
                best1 = c + xj
        d0[j] = best0
        d1[j] = best1
    # Phase 2: routes through the opposite sign.  Pair-to-pair distances
    # need one extra min-plus composition (edge, old path, edge).
    dd01 = min(d0[b] + m.get(b, p1) if d0[b] != INF and m.get(b, p1) != INF else INF
               for b in range(dim))
    dd10 = min(d1[b] + m.get(b, p0) if d1[b] != INF and m.get(b, p0) != INF else INF
               for b in range(dim))
    dd00 = min(d0[b] + m.get(b, p0) if d0[b] != INF and m.get(b, p0) != INF else INF
               for b in range(dim))
    dd11 = min(d1[b] + m.get(b, p1) if d1[b] != INF and m.get(b, p1) != INF else INF
               for b in range(dim))
    r0 = [min(d0[j], dd01 + d1[j]) if dd01 != INF and d1[j] != INF else d0[j]
          for j in range(dim)]
    r1 = [min(d1[j], dd10 + d0[j]) if dd10 != INF and d0[j] != INF else d1[j]
          for j in range(dim)]
    r0[p1] = min(r0[p1], dd01)
    r1[p0] = min(r1[p0], dd10)
    r0[p0] = min(r0[p0], dd00)
    r1[p1] = min(r1[p1], dd11)
    for j in range(dim):
        m.min_set(p0, j, r0[j])
        m.min_set(p1, j, r1[j])
    # Phase 3: pivot-pair sweep over the stored half.
    data = m.data
    for i in range(dim):
        oip0 = get(i, p0)
        oip1 = get(i, p1)
        base = (i + 1) * (i + 1) // 2
        for j in range(cap(i) + 1):
            p = base + j
            if oip0 != INF:
                c = get(p0, j)
                if c != INF and oip0 + c < data[p]:
                    data[p] = oip0 + c
            if oip1 != INF:
                c = get(p1, j)
                if c != INF and oip1 + c < data[p]:
                    data[p] = oip1 + c
    # Phase 4: strengthening.
    strengthen_scalar(m)
    if is_bottom_half(m):
        return True
    reset_diagonal_half(m)
    return False


class ApronOctagon:
    """Baseline octagon: dense half-matrix storage, scalar algorithms."""

    __slots__ = ("n", "half", "closed", "_bottom", "_ccache")

    BATCHABLE = True  # see analysis/plan.py

    def __init__(self, n: int, half: HalfMat, *, closed: bool = False,
                 bottom: bool = False):
        self.n = n
        self.half = half
        self.closed = closed
        self._bottom = bottom
        self._ccache = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls, n: int) -> "ApronOctagon":
        return cls(n, HalfMat(n), closed=True)

    @classmethod
    def bottom(cls, n: int) -> "ApronOctagon":
        return cls(n, HalfMat(n), closed=True, bottom=True)

    @classmethod
    def from_constraints(cls, n: int, constraints: Iterable[OctConstraint]) -> "ApronOctagon":
        out = cls.top(n)
        for cons in constraints:
            out._meet_constraint_cells(cons)
        return out

    @classmethod
    def from_box(cls, bounds: Sequence[Tuple[float, float]]) -> "ApronOctagon":
        n = len(bounds)
        out = cls.top(n)
        for v, (lo, hi) in enumerate(bounds):
            if lo > hi:
                return cls.bottom(n)
            if hi != INF:
                out._meet_constraint_cells(OctConstraint.upper(v, hi))
            if lo != -INF:
                out._meet_constraint_cells(OctConstraint.lower(v, lo))
        return out

    def copy(self) -> "ApronOctagon":
        return ApronOctagon(self.n, self.half.copy(), closed=self.closed,
                            bottom=self._bottom)

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
        return self.closure().half.count_finite() == 2 * self.n

    def is_leq(self, other: "ApronOctagon") -> bool:
        self._check_compat(other)
        if self.is_bottom():
            return True
        if other._bottom:
            return False
        closed = self.closure()
        if self._bottom:
            return True
        with stats.timed_op("is_leq"):
            a, b = closed.half.data, other.half.data
            return all(x <= y for x, y in zip(a, b))

    def is_eq(self, other: "ApronOctagon") -> bool:
        self._check_compat(other)
        if self.is_bottom() or other.is_bottom():
            return self.is_bottom() and other.is_bottom()
        a, b = self.closure(), other.closure()
        if self._bottom or other._bottom:
            return self._bottom and other._bottom
        return a.half.data == b.half.data

    def _check_compat(self, other: "ApronOctagon") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def closure(self) -> "ApronOctagon":
        """The closed form; a cached copy, the original is preserved
        (mirrors APRON's m/closed matrix pair -- the widening operator
        must see the unclosed left argument)."""
        if self._bottom or self.closed:
            return self
        if self._ccache is not None:
            return self._ccache
        out = self.copy()
        with stats.timed_op("closure", n=self.n, kind="apron", components=1):
            empty = kernels.apron_closure(out.half)
        if empty:
            self._become_bottom()
            return self
        out.closed = True
        self._ccache = out
        return out

    def close(self) -> "ApronOctagon":
        return self.closure()

    def _incremental_close(self, v: int) -> None:
        with stats.timed_op("closure_inc", n=self.n, kind="apron-incremental",
                            components=1, v=v):
            empty = _incremental_closure_half(self.half, v)
        if empty:
            self._become_bottom()
        else:
            self.closed = True

    def _become_bottom(self) -> None:
        self._bottom = True
        self.closed = True
        self.half = HalfMat(self.n)

    # ------------------------------------------------------------------
    # lattice operators (scalar element-wise loops, as in APRON)
    # ------------------------------------------------------------------
    def meet(self, other: "ApronOctagon") -> "ApronOctagon":
        self._check_compat(other)
        if self._bottom or other._bottom:
            return ApronOctagon.bottom(self.n)
        with stats.timed_op("meet"):
            out = HalfMat.__new__(HalfMat)
            out.n = self.n
            out.data = [a if a <= b else b
                        for a, b in zip(self.half.data, other.half.data)]
            return ApronOctagon(self.n, out, closed=False)

    def join(self, other: "ApronOctagon") -> "ApronOctagon":
        self._check_compat(other)
        if self.is_bottom():
            return other.copy()
        if other.is_bottom():
            return self.copy()
        ca, cb = self.closure(), other.closure()
        if self._bottom:
            return other.copy()
        if other._bottom:
            return self.copy()
        with stats.timed_op("join"):
            out = HalfMat.__new__(HalfMat)
            out.n = self.n
            out.data = [a if a >= b else b
                        for a, b in zip(ca.half.data, cb.half.data)]
            return ApronOctagon(self.n, out, closed=True)

    def widening(self, other: "ApronOctagon") -> "ApronOctagon":
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        cb = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            out = HalfMat.__new__(HalfMat)
            out.n = self.n
            out.data = [a if b <= a else INF
                        for a, b in zip(self.half.data, cb.half.data)]
            res = ApronOctagon(self.n, out, closed=False)
            reset_diagonal_half(res.half)
            return res

    def narrowing(self, other: "ApronOctagon") -> "ApronOctagon":
        self._check_compat(other)
        if self._bottom or other._bottom:
            return ApronOctagon.bottom(self.n)
        with stats.timed_op("narrowing"):
            out = HalfMat.__new__(HalfMat)
            out.n = self.n
            out.data = [b if a == INF else a
                        for a, b in zip(self.half.data, other.half.data)]
            return ApronOctagon(self.n, out, closed=False)

    # ------------------------------------------------------------------
    # constraints and transfer functions
    # ------------------------------------------------------------------
    def _meet_constraint_cells(self, cons: OctConstraint) -> None:
        for r, s, c in dbm_cells(cons):
            self.half.min_set(r, s, c)
        self.closed = False
        self._ccache = None

    def meet_constraint(self, cons: OctConstraint) -> "ApronOctagon":
        if self._bottom:
            return self.copy()
        with stats.timed_op("meet_constraint"):
            base = self.closure() if self.closed or self._ccache else self
            out = base.copy()
            was_closed = out.closed
            out._meet_constraint_cells(cons)
            if was_closed:
                out._incremental_close(cons.i)
        return out

    def meet_constraints(self, constraints: Iterable[OctConstraint]) -> "ApronOctagon":
        if self._bottom:
            return self.copy()
        base = self.closure() if self.closed or self._ccache else self
        out = base.copy()
        was_closed = out.closed
        with stats.timed_op("meet_constraint"):
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
        return out

    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "ApronOctagon":
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return (self.copy() if expr.const <= 0 else ApronOctagon.bottom(self.n))
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
        for ai in range(len(items)):
            va, ca = items[ai]
            if ca not in (1.0, -1.0):
                continue
            for bi in range(ai + 1, len(items)):
                vb, cb = items[bi]
                if cb not in (1.0, -1.0):
                    continue
                bound = residual_neg_sup((va, vb))
                if is_finite(bound):
                    constraints.append(OctConstraint(va, int(ca), vb, int(cb), bound))
        if not constraints:
            return self.copy()
        return closed.meet_constraints(constraints)

    def forget(self, v: int) -> "ApronOctagon":
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        with stats.timed_op("forget"):
            out = closed.copy()
            dim = 2 * self.n
            p0, p1 = 2 * v, 2 * v + 1
            for j in range(dim):
                if j not in (p0, p1):
                    out.half.set(p0, j, INF)
                    out.half.set(p1, j, INF)
                    out.half.set(j, p0, INF)
                    out.half.set(j, p1, INF)
            out.half.set(p0, p1, INF)
            out.half.set(p1, p0, INF)
            out.half.set(p0, p0, 0.0)
            out.half.set(p1, p1, 0.0)
            out.closed = True
        return out

    def assign_const(self, v: int, c: float) -> "ApronOctagon":
        out = self.forget(v)
        if out._bottom:
            return out
        with stats.timed_op("assign"):
            out._meet_constraint_cells(OctConstraint.upper(v, c))
            out._meet_constraint_cells(OctConstraint.lower(v, c))
            out._incremental_close(v)
        return out

    def assign_interval(self, v: int, lo: float, hi: float) -> "ApronOctagon":
        if lo > hi:
            return ApronOctagon.bottom(self.n)
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

    def assign_translate(self, v: int, c: float) -> "ApronOctagon":
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            dim = 2 * self.n
            p0, p1 = 2 * v, 2 * v + 1

            def shift(i: int, j: int, delta: float) -> None:
                a = out.half.get(i, j)
                if a != INF:
                    out.half.set(i, j, a + delta)

            # Adjust each *stored* slot exactly once (its coherent mirror
            # is the same slot, so iterating the virtual full matrix
            # would double-shift).
            for j in range(p0):
                shift(p0, j, -c)
                shift(p1, j, +c)
            for i in range(p1 + 1, dim):
                shift(i, p0, +c)
                shift(i, p1, -c)
            shift(p0, p1, -2 * c)
            shift(p1, p0, +2 * c)
        return out

    def assign_negate(self, v: int, c: float = 0.0) -> "ApronOctagon":
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            dim = 2 * self.n
            p0, p1 = 2 * v, 2 * v + 1
            # Read every new value first: on the half representation a
            # row slot and a column slot may alias through coherence, so
            # interleaved swapping would undo itself.
            updates = {}
            for j in range(dim):
                if j in (p0, p1):
                    continue
                updates[(p0, j)] = out.half.get(p1, j)
                updates[(p1, j)] = out.half.get(p0, j)
                updates[(j, p0)] = out.half.get(j, p1)
                updates[(j, p1)] = out.half.get(j, p0)
            updates[(p0, p1)] = out.half.get(p1, p0)
            updates[(p1, p0)] = out.half.get(p0, p1)
            for (i, j), val in updates.items():
                out.half.set(i, j, val)
        if c != 0.0:
            return out.assign_translate(v, c)
        return out

    def assign_var(self, v: int, w: int, *, coeff: int = 1, offset: float = 0.0) -> "ApronOctagon":
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

    def assign_linexpr(self, v: int, expr: LinExpr) -> "ApronOctagon":
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

    # ------------------------------------------------------------------
    # dimension management (API parity with the optimised octagon)
    # ------------------------------------------------------------------
    def add_dimensions(self, k: int) -> "ApronOctagon":
        """Append ``k`` fresh unconstrained variables."""
        if k < 0:
            raise ValueError("cannot add a negative number of dimensions")
        out = ApronOctagon.top(self.n + k)
        for i, j, c in self.half.iter_entries():
            out.half.set(i, j, c)
        out.closed = self.closed
        out._bottom = self._bottom
        return out

    def remove_dimensions(self, variables: Sequence[int]) -> "ApronOctagon":
        """Project away and delete the given variables."""
        drop = sorted(set(variables))
        if any(not 0 <= v < self.n for v in drop):
            raise ValueError("variable out of range")
        cur = self
        for v in drop:
            cur = cur.forget(v)
        keep = [v for v in range(self.n) if v not in set(drop)]
        out = ApronOctagon.top(len(keep))
        for new_v, old_v in enumerate(keep):
            for new_w, old_w in enumerate(keep):
                for sv in (0, 1):
                    for sw in (0, 1):
                        out.half.set(2 * new_v + sv, 2 * new_w + sw,
                                     cur.half.get(2 * old_v + sv,
                                                  2 * old_w + sw))
        out.closed = cur.closed
        out._bottom = cur._bottom
        return out

    def permute(self, perm: Sequence[int]) -> "ApronOctagon":
        """Rename variables: new variable ``i`` is old ``perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        out = ApronOctagon.top(self.n)
        for new_v, old_v in enumerate(perm):
            for new_w, old_w in enumerate(perm):
                for sv in (0, 1):
                    for sw in (0, 1):
                        out.half.set(2 * new_v + sv, 2 * new_w + sw,
                                     self.half.get(2 * old_v + sv,
                                                   2 * old_w + sw))
        out.closed = self.closed
        out._bottom = self._bottom
        return out

    def widening_thresholds(self, other: "ApronOctagon",
                            thresholds: Sequence[float]) -> "ApronOctagon":
        """Widening with thresholds (scalar element-wise loop)."""
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        cb = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            ts = sorted(float(t) for t in thresholds)
            out = HalfMat.__new__(HalfMat)
            out.n = self.n

            def bump(value: float) -> float:
                for t in ts:
                    if value <= t:
                        return t
                return INF

            out.data = [a if b <= a else bump(b)
                        for a, b in zip(self.half.data, cb.half.data)]
            res = ApronOctagon(self.n, out, closed=False)
            reset_diagonal_half(res.half)
            return res

    def substitute_linexpr(self, v: int, expr: LinExpr) -> "ApronOctagon":
        """Backward assignment via the temporary-dimension construction
        (see :meth:`repro.core.Octagon.substitute_linexpr`)."""
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
                    return ApronOctagon.bottom(self.n)
                lo, hi = expr.interval(closed.bounds)
                if hi != INF:
                    constraints.append(OctConstraint(t, 1, t, 0, hi))
                if lo != -INF:
                    constraints.append(OctConstraint(t, -1, t, 0, -lo))
                for w, c in coeffs.items():
                    if c not in (1.0, -1.0):
                        continue
                    rest = LinExpr({u: cu for u, cu in coeffs.items()
                                    if u != w}, expr.const)
                    rlo, rhi = rest.interval(closed.bounds)
                    if rhi != INF:
                        constraints.append(OctConstraint(t, 1, w, -int(c), rhi))
                    if rlo != -INF:
                        constraints.append(OctConstraint(t, -1, w, int(c), -rlo))
            if constraints:
                ext = ext.meet_constraints(constraints)
        return ext.remove_dimensions([t])

    # ------------------------------------------------------------------
    # bounds and export
    # ------------------------------------------------------------------
    def bounds(self, v: int) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        closed = self.closure()
        if self._bottom:
            return (INF, -INF)
        ub2 = closed.half.get(2 * v + 1, 2 * v)
        lb2 = closed.half.get(2 * v, 2 * v + 1)
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
            hi_cell = dbm_cells(OctConstraint(va, int(ca), vb, int(cb), 0.0))[0]
            lo_cell = dbm_cells(OctConstraint(va, -int(ca), vb, -int(cb), 0.0))[0]
            hi_raw = closed.half.get(hi_cell[0], hi_cell[1])
            lo_raw = closed.half.get(lo_cell[0], lo_cell[1])
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
        out: List[OctConstraint] = []
        for i, j, c in self.closure().half.iter_entries():
            if i != j and is_finite(c):
                out.append(constraint_of_cell(i, j, c))
        return out

    def contains_point(self, values: Sequence[float], *, tol: float = 1e-9) -> bool:
        if self._bottom:
            return False
        if len(values) != self.n:
            raise ValueError("point dimension mismatch")
        vhat = []
        for x in values:
            vhat.append(float(x))
            vhat.append(-float(x))
        for i, j, c in self.half.iter_entries():
            if is_finite(c) and vhat[j] - vhat[i] > c + tol:
                return False
        return True

    def __repr__(self) -> str:
        if self._bottom:
            return f"ApronOctagon(n={self.n}, bottom)"
        return (f"ApronOctagon(n={self.n}, finite={self.half.count_finite()}, "
                f"closed={self.closed})")
