"""The Pentagon abstract domain (Logozzo & Faehndrich, SAC 2008).

Pentagons -- the paper's citation [22] -- combine interval bounds with
*strict* symbolic upper bounds ``x < y``.  They are cheaper than zones
and octagons (no DBM, no cubic closure) and were designed for exactly
the array-bounds workloads that motivate octagons, so they make a good
third point on the precision/cost spectrum explored by the examples.

State = a box (two vectors) plus ``less[v]`` = the set of variables
known to be strictly greater than ``v``.  The implementation follows
the published design:

* meet/join/widening act componentwise (intersection of the relation
  sets under join, per the original paper);
* a (cheap, quadratic) reduction propagates ``x < y`` into the interval
  bounds before queries;
* transfer functions extract ``x < y`` facts from assumes and simple
  assignments and drop relations whose variables are overwritten.

Implements the same protocol as the other domains
(``get_domain("pentagon")``).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.bounds import INF
from ..core.constraints import LinExpr, OctConstraint


class Pentagon:
    """Box + strict-upper-bound relations ``v < w``."""

    __slots__ = ("n", "lo", "hi", "less", "_bottom")

    def __init__(self, n: int, lo: np.ndarray, hi: np.ndarray,
                 less: Tuple[FrozenSet[int], ...], *, bottom: bool = False):
        self.n = n
        self.lo = lo
        self.hi = hi
        self.less = less  # less[v] = {w | v < w}
        self._bottom = bottom

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls, n: int) -> "Pentagon":
        return cls(n, np.full(n, -INF), np.full(n, INF),
                   tuple(frozenset() for _ in range(n)))

    @classmethod
    def bottom(cls, n: int) -> "Pentagon":
        return cls(n, np.full(n, INF), np.full(n, -INF),
                   tuple(frozenset() for _ in range(n)), bottom=True)

    @classmethod
    def from_box(cls, bounds: Sequence[Tuple[float, float]]) -> "Pentagon":
        n = len(bounds)
        lo = np.array([b[0] for b in bounds], dtype=np.float64)
        hi = np.array([b[1] for b in bounds], dtype=np.float64)
        if np.any(lo > hi):
            return cls.bottom(n)
        return cls(n, lo, hi, tuple(frozenset() for _ in range(n)))

    def copy(self) -> "Pentagon":
        return Pentagon(self.n, self.lo.copy(), self.hi.copy(), self.less,
                        bottom=self._bottom)

    def _with(self, lo=None, hi=None, less=None) -> "Pentagon":
        return Pentagon(self.n,
                        self.lo.copy() if lo is None else lo,
                        self.hi.copy() if hi is None else hi,
                        self.less if less is None else less)

    # ------------------------------------------------------------------
    # reduction and predicates
    # ------------------------------------------------------------------
    def _reduced(self) -> "Pentagon":
        """Propagate ``v < w`` into the bounds to a local fixpoint."""
        if self._bottom:
            return self
        lo, hi = self.lo.copy(), self.hi.copy()
        changed = True
        rounds = 0
        while changed and rounds <= self.n + 1:
            changed = False
            rounds += 1
            for v in range(self.n):
                for w in self.less[v]:
                    # v < w over the integers: v <= w - 1, w >= v + 1.
                    if hi[w] != INF and hi[w] - 1 < hi[v]:
                        hi[v] = hi[w] - 1
                        changed = True
                    if lo[v] != -INF and lo[v] + 1 > lo[w]:
                        lo[w] = lo[v] + 1
                        changed = True
        out = Pentagon(self.n, lo, hi, self.less)
        if self.n and bool(np.any(lo > hi)):
            return Pentagon.bottom(self.n)
        # A relational cycle v < ... < v is empty too.
        if self._has_cycle():
            return Pentagon.bottom(self.n)
        return out

    def _has_cycle(self) -> bool:
        colour = [0] * self.n  # 0 unseen, 1 on stack, 2 done

        def dfs(v: int) -> bool:
            colour[v] = 1
            for w in self.less[v]:
                if colour[w] == 1:
                    return True
                if colour[w] == 0 and dfs(w):
                    return True
            colour[v] = 2
            return False

        return any(colour[v] == 0 and dfs(v) for v in range(self.n))

    def close(self) -> "Pentagon":
        return self

    def closure(self) -> "Pentagon":
        return self

    def is_bottom(self) -> bool:
        if self._bottom:
            return True
        reduced = self._reduced()
        return reduced._bottom

    def is_top(self) -> bool:
        if self.is_bottom():
            return False
        return (bool(np.all(np.isneginf(self.lo)))
                and bool(np.all(np.isposinf(self.hi)))
                and all(not s for s in self.less))

    def is_leq(self, other: "Pentagon") -> bool:
        self._check(other)
        if self.is_bottom():
            return True
        if other.is_bottom():
            return False
        a = self._reduced()
        # Interval inclusion plus relation-set inclusion, where a
        # missing relation may be implied by the intervals.
        if not (np.all(a.lo >= other.lo) and np.all(a.hi <= other.hi)):
            return False
        for v in range(self.n):
            for w in other.less[v]:
                implied = (a.hi[v] != INF and other.lo[w] != -INF and
                           a.hi[v] < other.lo[w] + 1)
                if w not in a.less[v] and not (
                        a.hi[v] != INF and a.lo[w] != -INF and a.hi[v] < a.lo[w]) \
                        and not implied:
                    return False
        return True

    def is_eq(self, other: "Pentagon") -> bool:
        return self.is_leq(other) and other.is_leq(self)

    def _check(self, other: "Pentagon") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # lattice
    # ------------------------------------------------------------------
    def meet(self, other: "Pentagon") -> "Pentagon":
        self._check(other)
        if self._bottom or other._bottom:
            return Pentagon.bottom(self.n)
        less = tuple(self.less[v] | other.less[v] for v in range(self.n))
        out = Pentagon(self.n, np.maximum(self.lo, other.lo),
                       np.minimum(self.hi, other.hi), less)
        return out._reduced()

    def join(self, other: "Pentagon") -> "Pentagon":
        self._check(other)
        if self.is_bottom():
            return other.copy()
        if other.is_bottom():
            return self.copy()
        a, b = self._reduced(), other._reduced()
        less = []
        for v in range(self.n):
            # Keep v < w if it holds (explicitly or via bounds) on both sides.
            kept = set()
            for w in a.less[v] | b.less[v]:
                in_a = w in a.less[v] or (a.hi[v] != INF and a.lo[w] != -INF
                                          and a.hi[v] < a.lo[w])
                in_b = w in b.less[v] or (b.hi[v] != INF and b.lo[w] != -INF
                                          and b.hi[v] < b.lo[w])
                if in_a and in_b:
                    kept.add(w)
            less.append(frozenset(kept))
        return Pentagon(self.n, np.minimum(a.lo, b.lo),
                        np.maximum(a.hi, b.hi), tuple(less))

    def widening(self, other: "Pentagon") -> "Pentagon":
        self._check(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        lo = np.where(other.lo >= self.lo, self.lo, -INF)
        hi = np.where(other.hi <= self.hi, self.hi, INF)
        # Relations: keep only those still present in the new iterate
        # (finite set, so plain intersection terminates).
        less = tuple(self.less[v] & other.less[v] for v in range(self.n))
        return Pentagon(self.n, lo, hi, less)

    def narrowing(self, other: "Pentagon") -> "Pentagon":
        self._check(other)
        if self._bottom or other._bottom:
            return Pentagon.bottom(self.n)
        lo = np.where(np.isneginf(self.lo), other.lo, self.lo)
        hi = np.where(np.isposinf(self.hi), other.hi, self.hi)
        return Pentagon(self.n, lo, hi, self.less)

    # ------------------------------------------------------------------
    # transfer
    # ------------------------------------------------------------------
    def _drop_var(self, v: int) -> Tuple[FrozenSet[int], ...]:
        return tuple(frozenset() if u == v else (s - {v})
                     for u, s in enumerate(self.less))

    def forget(self, v: int) -> "Pentagon":
        if self.is_bottom():
            return self.copy()
        red = self._reduced()
        out = red._with(less=red._drop_var(v))
        out.lo[v], out.hi[v] = -INF, INF
        return out

    def assign_const(self, v: int, c: float) -> "Pentagon":
        out = self.forget(v)
        if out._bottom:
            return out
        out.lo[v] = out.hi[v] = c
        return out

    def assign_interval(self, v: int, lo: float, hi: float) -> "Pentagon":
        if lo > hi:
            return Pentagon.bottom(self.n)
        out = self.forget(v)
        if out._bottom:
            return out
        out.lo[v], out.hi[v] = lo, hi
        return out

    def assign_var(self, v: int, w: int, *, coeff: int = 1,
                   offset: float = 0.0) -> "Pentagon":
        return self.assign_linexpr(v, LinExpr({w: float(coeff)}, offset))

    def assign_linexpr(self, v: int, expr: LinExpr) -> "Pentagon":
        if self.is_bottom():
            return self.copy()
        red = self._reduced()
        lo, hi = expr.interval(red.bounds)
        coeffs = {w: c for w, c in expr.coeffs.items() if c != 0.0}
        out = red._with(less=red._drop_var(v))
        out.lo[v], out.hi[v] = lo, hi
        # Symbolic facts from shapes the pentagon understands:
        #   v := w + c with c < 0  gives  v < w;  with c > 0  gives  w < v.
        if len(coeffs) == 1:
            ((w, c),) = coeffs.items()
            if w != v and c == 1.0:
                less = list(out.less)
                if expr.const < 0:
                    less[v] = less[v] | {w}
                elif expr.const > 0:
                    less[w] = less[w] | {v}
                out = out._with(less=tuple(less))
        return out

    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "Pentagon":
        """Meet with ``expr <= 0``; ``v - w <= -1`` records ``v < w``."""
        if self.is_bottom():
            return self.copy()
        red = self._reduced()
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return self.copy() if expr.const <= 0 else Pentagon.bottom(self.n)
        out = red.copy()
        # Interval refinement (as in the box domain).
        for v, c in coeffs.items():
            rest = LinExpr({u: cu for u, cu in coeffs.items() if u != v},
                           expr.const)
            rlo, _ = rest.interval(red.bounds)
            if rlo == -INF:
                continue
            limit = -rlo / c
            if c > 0:
                out.hi[v] = min(out.hi[v], limit)
            else:
                out.lo[v] = max(out.lo[v], limit)
        # Relational handling of differences: v - w + k <= 0 means
        # v <= w - k.  With k >= 1 that is the pentagon fact v < w; with
        # k >= 0 it still contradicts a known strict w < v.
        items = sorted(coeffs.items())
        if len(items) == 2 and items[0][1] == -items[1][1] and \
                abs(items[0][1]) == 1.0:
            (va, ca), (vb, _) = items
            small, big = (va, vb) if ca == 1.0 else (vb, va)
            if expr.const >= 0.0 and small in out.less[big]:
                return Pentagon.bottom(self.n)  # big < small and small <= big
            if expr.const >= 1.0:
                less = list(out.less)
                less[small] = less[small] | {big}
                out = out._with(lo=out.lo, hi=out.hi, less=tuple(less))
        return out._reduced()

    def meet_constraint(self, cons: OctConstraint) -> "Pentagon":
        coeffs = {cons.i: float(cons.coeff_i)}
        if cons.coeff_j != 0:
            coeffs[cons.j] = coeffs.get(cons.j, 0.0) + float(cons.coeff_j)
        return self.assume_linear(LinExpr(coeffs, -cons.bound))

    def meet_constraints(self, constraints: Iterable[OctConstraint]) -> "Pentagon":
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
        red = self._reduced()
        return (float(red.lo[v]), float(red.hi[v]))

    def bound_linexpr(self, expr: LinExpr) -> Tuple[float, float]:
        if self.is_bottom():
            return (INF, -INF)
        red = self._reduced()
        lo, hi = expr.interval(red.bounds)
        # v - w with v < w known: upper bound -1.
        coeffs = sorted((v, c) for v, c in expr.coeffs.items() if c != 0.0)
        if len(coeffs) == 2 and coeffs[0][1] == -coeffs[1][1] and \
                abs(coeffs[0][1]) == 1.0:
            (va, ca), (vb, _) = coeffs
            small, big = (va, vb) if ca == 1.0 else (vb, va)
            if big in red.less[small]:
                hi = min(hi, -1.0 + expr.const)
        return (lo, hi)

    def to_box(self) -> List[Tuple[float, float]]:
        return [self.bounds(v) for v in range(self.n)]

    def contains_point(self, values: Sequence[float], *, tol: float = 1e-9) -> bool:
        if self._bottom:
            return False
        vals = np.asarray(values, dtype=np.float64)
        if not (np.all(vals >= self.lo - tol) and np.all(vals <= self.hi + tol)):
            return False
        # "Not at or above": two infinite coordinates (values beyond
        # float range) give inf - inf = nan, which violates nothing --
        # as in Octagon.contains_point.
        with np.errstate(invalid="ignore"):
            return not any(vals[v] - vals[w] >= tol
                           for v in range(self.n) for w in self.less[v])

    def __repr__(self) -> str:
        if self._bottom:
            return f"Pentagon(n={self.n}, bottom)"
        rels = sum(len(s) for s in self.less)
        return f"Pentagon(n={self.n}, relations={rels})"
