"""The optimised Octagon domain element (the paper's OptOctagon).

An :class:`Octagon` owns a full coherent ``2n x 2n`` DBM plus the
structural information of paper section 3: the maintained partition of
independent components, the finite-entry count ``nni`` and a derived
:class:`~repro.core.kinds.DbmKind`.  Every operator follows the paper's
recipe for its kind:

* **Top** octagons short-circuit (empty partition, nothing to do).
* **Decomposed** octagons run operators per component submatrix; the
  partitions combine with set union under meet and set intersection
  under join/widening (section 4.3).
* **Sparse** octagons use the index-driven sparse closure.
* **Dense** octagons use the vectorised half-matrix closure of
  Algorithm 3 (section 4.1).

Closure is the synchronisation point: afterwards the partition and
``nni`` are recomputed *exactly* from the matrix (section 3.5), so the
maintained over-approximation cannot degrade towards the dense case.

Like APRON's ``oct_t`` (which keeps a ``m``/``closed`` matrix pair),
an octagon never loses its *original* matrix: :meth:`closure` returns a
cached closed copy.  This matters for termination -- the widening
operator must see the unclosed left argument, so closure must not
overwrite the loop-head states stored by the fixpoint engine.

Storage is copy-on-write (:mod:`repro.core.cow`): :meth:`copy` is O(1)
aliasing, every in-place mutation path materialises an exclusive
matrix first (via :meth:`_write_mat`), and the cached closed copy is
stamped with the matrix's mutation version so it survives aliasing --
``copy().closure()`` reuses the already-computed closed form instead
of re-running a cubic kernel.  The partition is shared on copy too:
:class:`~repro.core.partition.Partition` objects are immutable after
construction by convention.

The matrix convention matches the paper's Figure 1: ``mat[i, j] = c``
encodes ``vhat_j - vhat_i <= c`` with ``vhat_{2v} = +v`` and
``vhat_{2v+1} = -v``; see :mod:`repro.core.constraints` for the
constraint-to-cell mapping.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics
from . import budget as _budget
from . import kernels
from . import sentinel as _sentinel
from . import stats
from .bounds import INF, is_finite
from .cow import CowMat, is_enabled as _cow_enabled
from .closure_decomposed import closure_decomposed
from .closure_incremental import swept_cells
from .constraints import LinExpr, OctConstraint, constraints_from_dbm, dbm_cells
from .densemat import matrices_equal, new_top
from .kernels import count_nni
from .indexing import expand_vars, half_size
from .kinds import DEFAULT_POLICY, DbmKind, SwitchPolicy
from .partition import Partition
from .workspace import get_workspace
from ..testing import faults as _faults

# Shared with the Zone domain, whose closure cache bumps the same name.
metrics.REGISTRY.counter("closure_cache_hits",
                         "Closed forms served from the versioned cache")
metrics.REGISTRY.counter("assign_closed_form",
                         "Assignments written in closed form on a closed DBM")
# DBM footprint, recorded at closure boundaries.
metrics.REGISTRY.counter("dbm_finite_cells",
                         "Finite half-matrix cells, high-water mark")
metrics.REGISTRY.counter("dbm_half_size",
                         "Half-matrix capacity 2n^2+2n, high-water mark")
metrics.REGISTRY.counter("dbm_peak_bytes",
                         "Peak materialised DBM bytes (8 per cell)")


class Octagon:
    """A (possibly decomposed) octagon over ``n`` program variables."""

    __slots__ = ("n", "_cow", "partition", "nni", "closed", "_bottom",
                 "policy", "_ccache", "_ccache_version")

    BATCHABLE = True  # see analysis/plan.py

    def __init__(
        self,
        n: int,
        mat: Union[np.ndarray, CowMat],
        partition: Partition,
        nni: int,
        *,
        closed: bool = False,
        bottom: bool = False,
        policy: SwitchPolicy = DEFAULT_POLICY,
    ):
        self.n = n
        self._cow = mat if isinstance(mat, CowMat) else CowMat(mat)
        self.partition = partition
        self.nni = nni
        self.closed = closed
        self._bottom = bottom
        self.policy = policy
        self._ccache: Optional["Octagon"] = None
        self._ccache_version = -1

    # ------------------------------------------------------------------
    # copy-on-write storage
    # ------------------------------------------------------------------
    @property
    def mat(self) -> np.ndarray:
        """The full coherent DBM (may be shared with aliases; use
        :meth:`_write_mat` before any in-place mutation)."""
        return self._cow.arr

    @mat.setter
    def mat(self, arr: np.ndarray) -> None:
        self._cow = arr if isinstance(arr, CowMat) else CowMat(arr)

    def _write_mat(self) -> np.ndarray:
        """Exclusive, writable DBM: materialises a copy if the matrix is
        shared, bumps the mutation version and drops the closed cache."""
        self._ccache = None
        return self._cow.written()

    def _cached_closure(self) -> Optional["Octagon"]:
        """The cached closed copy, if still valid for this matrix."""
        cc = self._ccache
        if cc is not None and self._ccache_version == self._cow.version:
            return cc
        return None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls, n: int, *, policy: SwitchPolicy = DEFAULT_POLICY) -> "Octagon":
        """The top element: no constraints, empty component set."""
        return cls(n, new_top(n), Partition.empty(n), 2 * n, closed=True, policy=policy)

    @classmethod
    def bottom(cls, n: int, *, policy: SwitchPolicy = DEFAULT_POLICY) -> "Octagon":
        """The bottom element (empty octagon)."""
        return cls(n, new_top(n), Partition.empty(n), 2 * n,
                   closed=True, bottom=True, policy=policy)

    @classmethod
    def from_constraints(
        cls,
        n: int,
        constraints: Iterable[OctConstraint],
        *,
        policy: SwitchPolicy = DEFAULT_POLICY,
    ) -> "Octagon":
        """Octagon of a conjunction of octagonal constraints (unclosed)."""
        oct_ = cls.top(n, policy=policy)
        for cons in constraints:
            oct_._meet_constraint_cells(cons)
        return oct_

    @classmethod
    def from_box(
        cls,
        bounds: Sequence[Tuple[float, float]],
        *,
        policy: SwitchPolicy = DEFAULT_POLICY,
    ) -> "Octagon":
        """Octagon of per-variable interval bounds ``[(lo, hi), ...]``."""
        n = len(bounds)
        oct_ = cls.top(n, policy=policy)
        for v, (lo, hi) in enumerate(bounds):
            if lo > hi:
                return cls.bottom(n, policy=policy)
            if hi != INF:
                oct_._meet_constraint_cells(OctConstraint.upper(v, hi))
            if lo != -INF:
                oct_._meet_constraint_cells(OctConstraint.lower(v, lo))
        return oct_

    @classmethod
    def from_matrix(
        cls, mat: np.ndarray, *, copy: bool = True, policy: SwitchPolicy = DEFAULT_POLICY
    ) -> "Octagon":
        """Wrap a full coherent DBM (caller guarantees coherence)."""
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"expected a 2n x 2n matrix, got {mat.shape}")
        n = mat.shape[0] // 2
        m = np.array(mat, dtype=np.float64, copy=copy)
        nni = count_nni(m)
        part = Partition.from_matrix(m) if policy.decompose else (
            Partition.single_block(n) if nni > 2 * n else Partition.empty(n))
        return cls(n, m, part, nni, closed=False, policy=policy)

    def copy(self) -> "Octagon":
        """O(1) aliasing copy (copy-on-write).

        The matrix is shared until either side writes; the partition is
        shared outright (immutable after construction); and a valid
        cached closed form is carried over, so ``copy().closure()``
        reuses it instead of re-running a closure kernel.
        """
        part = self.partition if _cow_enabled() else self.partition.copy()
        out = Octagon(self.n, self._cow.clone(), part, self.nni,
                      closed=self.closed, bottom=self._bottom, policy=self.policy)
        if _cow_enabled():  # baseline mode also measures pre-PR cache behaviour
            out._ccache = self._ccache
            out._ccache_version = self._ccache_version
        return out

    # ------------------------------------------------------------------
    # structural bookkeeping
    # ------------------------------------------------------------------
    @property
    def kind(self) -> DbmKind:
        """The paper's DBM type, derived from the maintained structure."""
        if self.partition.is_empty():
            return DbmKind.TOP
        if not self.policy.decompose:
            return DbmKind.DENSE
        if not self.partition.is_full_block():
            return DbmKind.DECOMPOSED
        if self.policy.is_sparse(self.nni, self.n):
            return DbmKind.SPARSE
        return DbmKind.DENSE

    @property
    def sparsity(self) -> float:
        """``D = 1 - nni/(2n^2 + 2n)`` (section 3.5)."""
        if self.n == 0:
            return 0.0
        return 1.0 - self.nni / half_size(self.n)

    def _refresh_structure_exact(self) -> None:
        """Recompute nni and the partition exactly (piggybacked on closure)."""
        self.nni = count_nni(self.mat)
        if self.policy.decompose:
            self.partition = Partition.from_matrix(self.mat)
        else:
            self.partition = (Partition.single_block(self.n)
                              if self.nni > 2 * self.n else Partition.empty(self.n))

    def _become_bottom(self) -> None:
        self._bottom = True
        self.closed = True
        self.mat = new_top(self.n)
        self.partition = Partition.empty(self.n)
        self.nni = 2 * self.n
        self._ccache = None

    # ------------------------------------------------------------------
    # closure (section 5)
    # ------------------------------------------------------------------
    def closure(self) -> "Octagon":
        """The closed (canonical) form of this octagon.

        Returns ``self`` when already closed, otherwise a cached closed
        copy; the original matrix is never overwritten (the widening
        operator depends on seeing it).  If closure discovers
        emptiness, ``self`` is also marked bottom (a semantic fact).
        """
        if self._bottom or self.closed:
            return self
        cc = self._cached_closure()
        if cc is not None:
            stats.bump("closure_cache_hits")
            return cc
        out = self.copy()
        out._close_in_place()
        if out._bottom:
            self._become_bottom()
            return self
        self._ccache = out
        self._ccache_version = self._cow.version
        return out

    # Kept for API familiarity: ``close()`` is ``closure()``.
    def close(self) -> "Octagon":
        return self.closure()

    def _close_in_place(self) -> None:
        """Dispatch on the DBM kind and close ``self.mat`` in place."""
        kind = self.kind
        components = self.partition.block_count()
        if kind != DbmKind.TOP:
            stats.capture_closure_input(self.mat, self.partition.blocks)
            # Budget checkpoint: charge the matrix area this kernel is
            # about to traverse (per-component for decomposed closures,
            # so a densifying octagon burns its cell budget much faster).
            if kind == DbmKind.DECOMPOSED:
                area = sum((2 * len(b)) ** 2 for b in self.partition.blocks)
            else:
                area = (2 * self.n) ** 2
            _budget.charge_cells(area)
        with stats.timed_op("closure", n=self.n, kind=str(kind),
                            components=components):
            if kind == DbmKind.TOP:
                # Nothing to close; do not materialise a shared matrix.
                self.closed = True
                return
            m = self._write_mat()
            if kind == DbmKind.DECOMPOSED:
                empty, exact = closure_decomposed(
                    m, self.partition, sparse_threshold=self.policy.threshold)
                if not empty:
                    self.partition = exact
                    self.nni = count_nni(m)
            elif kind == DbmKind.SPARSE:
                empty = kernels.sparse_closure(m)
                if not empty:
                    self._refresh_structure_exact()
            else:
                empty = kernels.dense_closure(m)
                if not empty:
                    self._refresh_structure_exact()
        if empty:
            self._become_bottom()
        else:
            self.closed = True
            self._record_footprint()
        if _faults.fire("dbm_corrupt"):
            _faults.corrupt_octagon(self)
        _sentinel.check(self)

    def _record_footprint(self) -> None:
        """High-water gauges at a closure boundary: the representation
        always holds the full ``(2n)^2`` matrix at 8 bytes a cell
        (container overhead excluded), and ``nni`` counts its finite
        half cells."""
        stats.bump_max_many((("dbm_finite_cells", self.nni),
                             ("dbm_half_size", half_size(self.n)),
                             ("dbm_peak_bytes", 8 * (2 * self.n) ** 2)))

    def _incremental_close(self, v: int) -> None:
        """Quadratic re-closure after changes confined to variable ``v``."""
        _budget.charge_cells(swept_cells(2 * self.n))
        with stats.timed_op("closure_inc", n=self.n, kind="incremental",
                            components=self.partition.block_count(), v=v):
            m = self._write_mat()
            empty = kernels.incremental_closure(m, v)
        if empty:
            self._become_bottom()
            return
        self.nni = count_nni(m)
        self._merge_unary_blocks(m)
        self.closed = True
        self._record_footprint()
        _sentinel.check(self)

    def _merge_unary_blocks(self, m: np.ndarray) -> None:
        """Fuse the blocks of every variable owning a finite unary bound.

        The partition is maintained *incrementally* after a re-closure
        confined to one variable (exact recomputation is reserved for
        full closures, per paper section 3.5): strengthening can only
        relate variables that own finite unary bounds, so merging their
        blocks keeps the partition a sound over-approximation at O(n)
        cost.
        """
        if not self.policy.decompose or self.partition.is_full_block():
            return
        ws = get_workspace(2 * self.n)
        d = m[ws.arange, ws.xor]
        unary_vars = np.nonzero(np.isfinite(d).reshape(-1, 2).any(axis=1))[0]
        if unary_vars.size > 1:
            self.partition = self.partition.merge_blocks_containing(
                unary_vars.tolist())

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def is_bottom(self) -> bool:
        """Emptiness test (computes the closure if necessary)."""
        if self._bottom:
            return True
        self.closure()
        return self._bottom

    def is_top(self) -> bool:
        if self.is_bottom():
            return False
        if self.partition.is_empty():
            return True
        return count_nni(self.closure().mat) == 2 * self.n

    def is_leq(self, other: "Octagon") -> bool:
        """Inclusion: ``gamma(self) subseteq gamma(other)``."""
        self._check_compat(other)
        if self.is_bottom():
            return True
        if other._bottom:
            return False
        if _cow_enabled() and self._cow.arr is other._cow.arr:
            return True  # COW aliases denote the same abstract value
        closed = self.closure()
        if self._bottom:
            return True
        with stats.timed_op("is_leq"):
            if other.partition.is_empty():
                return True
            if other.kind == DbmKind.DECOMPOSED:
                for block in other.partition.blocks:
                    idx = expand_vars(block)
                    gather = np.ix_(idx, idx)
                    if not bool(np.all(closed.mat[gather] <= other.mat[gather])):
                        return False
                return True
            return bool(np.all(closed.mat <= other.mat))

    def is_eq(self, other: "Octagon") -> bool:
        self._check_compat(other)
        if _cow_enabled() and self._cow.arr is other._cow.arr:
            return True
        if self.is_bottom() or other.is_bottom():
            return self.is_bottom() and other.is_bottom()
        a, b = self.closure(), other.closure()
        if self._bottom or other._bottom:
            return self._bottom and other._bottom
        return matrices_equal(a.mat, b.mat)

    def _check_compat(self, other: "Octagon") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # lattice operators (section 4)
    # ------------------------------------------------------------------
    def meet(self, other: "Octagon") -> "Octagon":
        """Greatest lower bound; induces union on the component sets."""
        self._check_compat(other)
        if self._bottom or other._bottom:
            return Octagon.bottom(self.n, policy=self.policy)
        with stats.timed_op("meet"):
            part = self.partition.union(other.partition)
            if self._use_blockwise(part):
                out = new_top(self.n)
                for block in part.blocks:
                    idx = expand_vars(block)
                    gather = np.ix_(idx, idx)
                    out[gather] = np.minimum(self.mat[gather], other.mat[gather])
            else:
                out = np.minimum(self.mat, other.mat)
            nni = count_nni(out)
            result = Octagon(self.n, out, part, nni, closed=False, policy=self.policy)
        _sentinel.check(result)
        return result

    def join(self, other: "Octagon") -> "Octagon":
        """Least upper bound; computed on the closures for precision and
        inducing intersection on the component sets."""
        self._check_compat(other)
        if _cow_enabled() and self._cow.arr is other._cow.arr:
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
            part = a.partition.intersection(b.partition)
            if self._use_blockwise(part):
                out = new_top(self.n)
                for block in part.blocks:
                    idx = expand_vars(block)
                    gather = np.ix_(idx, idx)
                    out[gather] = np.maximum(a.mat[gather], b.mat[gather])
            else:
                # Entries outside the component intersection are trivial
                # in one operand, so the whole-matrix max is identical.
                out = np.maximum(a.mat, b.mat)
            nni = count_nni(out)
            # The pointwise max of two closed DBMs is closed.
            result = Octagon(self.n, out, part, nni, closed=True, policy=self.policy)
        _sentinel.check(result)
        return result

    def widening(self, other: "Octagon") -> "Octagon":
        """Standard octagon widening, component-set intersection.

        ``self`` is the previous iterate and is used **unclosed**
        (widening a closed left argument can regenerate widened-away
        bounds through closure and lose termination); ``other`` is the
        new iterate and may be closed for precision.
        """
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        b = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            part = self.partition.intersection(b.partition)
            if self._use_blockwise(part):
                out = new_top(self.n)
                for block in part.blocks:
                    idx = expand_vars(block)
                    gather = np.ix_(idx, idx)
                    sa, sb = self.mat[gather], b.mat[gather]
                    out[gather] = np.where(sb <= sa, sa, INF)
            else:
                keep = b.mat <= self.mat
                out = np.where(keep, self.mat, INF)
            np.fill_diagonal(out, 0.0)
            nni = count_nni(out)
            result = Octagon(self.n, out, part, nni, closed=False, policy=self.policy)
        _sentinel.check(result)
        return result

    def widening_thresholds(self, other: "Octagon", thresholds: Sequence[float]) -> "Octagon":
        """Widening with thresholds: unstable bounds jump to the next
        threshold above the new value instead of directly to infinity."""
        self._check_compat(other)
        if self._bottom:
            return other.copy()
        if other.is_bottom():
            return self.copy()
        b = other.closure()
        if other._bottom:
            return self.copy()
        with stats.timed_op("widening"):
            ts = np.array(sorted(float(t) for t in thresholds), dtype=np.float64)
            part = self.partition.intersection(b.partition)
            stable = b.mat <= self.mat
            pos = np.searchsorted(ts, b.mat, side="left")
            bumped = np.full(b.mat.shape, INF)
            valid = pos < ts.size
            bumped[valid] = ts[pos[valid]]
            widened = np.where(stable, self.mat, bumped)
            if self._use_blockwise(part):
                out = new_top(self.n)
                for block in part.blocks:
                    idx = expand_vars(block)
                    gather = np.ix_(idx, idx)
                    out[gather] = widened[gather]
            else:
                out = widened
                # A bound bumped to a threshold stays finite even where
                # the operands' partitions do not intersect, so the
                # intersection can under-cover the result's constraint
                # graph; recompute the exact partition from the matrix.
                if self.policy.decompose:
                    np.fill_diagonal(out, 0.0)
                    part = Partition.from_matrix(out)
            np.fill_diagonal(out, 0.0)
            nni = count_nni(out)
            result = Octagon(self.n, out, part, nni, closed=False, policy=self.policy)
        _sentinel.check(result)
        return result

    def narrowing(self, other: "Octagon") -> "Octagon":
        """Standard narrowing: refine only the trivial (infinite) bounds."""
        self._check_compat(other)
        if self._bottom or other._bottom:
            return Octagon.bottom(self.n, policy=self.policy)
        with stats.timed_op("narrowing"):
            part = self.partition.union(other.partition)
            out = np.where(np.isinf(self.mat), other.mat, self.mat)
            nni = count_nni(out)
            result = Octagon(self.n, out, part, nni, closed=False, policy=self.policy)
        _sentinel.check(result)
        return result

    def _use_blockwise(self, part: Partition) -> bool:
        """Work per component submatrix instead of the whole matrix?

        The entrywise formulas for meet/join/widening are correct on
        the whole matrix regardless of the partition (entries outside
        the components are trivial in the operands), so blockwise
        iteration is purely a work reduction.  Each block costs two
        fancy-indexed gathers and a scatter, so it only pays when the
        components cover a small fraction of the matrix and the matrix
        is big enough for a full pass to matter.
        """
        if (not self.policy.decompose or self.n < 16 or part.is_empty()
                or part.is_full_block()):
            return False
        area = sum((2 * len(b)) ** 2 for b in part.blocks)
        return 4 * area <= (2 * self.n) ** 2

    # ------------------------------------------------------------------
    # constraint meets and tests
    # ------------------------------------------------------------------
    def _meet_constraint_cells(self, cons: OctConstraint) -> None:
        """Tighten the DBM cells of one constraint (no re-closure)."""
        m = self.mat
        wrote = False
        for r, s, c in dbm_cells(cons):
            if c < m[r, s]:
                if not wrote:
                    m = self._write_mat()
                    wrote = True
                # nni counts the half representation (j <= i|1), where a
                # coherent mirror pair contributes one entry, not two.
                if not is_finite(m[r, s]) and s <= (r | 1):
                    self.nni += 1
                m[r, s] = c
        vars_ = list(cons.variables())
        self.partition = self.partition.merge_blocks_containing(vars_)
        self.closed = False

    def meet_constraint(self, cons: OctConstraint) -> "Octagon":
        """Return ``self /\\ cons``; re-closes incrementally when
        ``self`` was closed (the paper's assignment/test fast path)."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("meet_constraint"):
            base = (self.closure()
                    if self.closed or self._cached_closure() is not None else self)
            out = base.copy()
            was_closed = out.closed
            out._meet_constraint_cells(cons)
            if was_closed:
                out._incremental_close(cons.i)
            else:
                _sentinel.check(out)
        return out

    def meet_constraints(self, constraints: Iterable[OctConstraint]) -> "Octagon":
        """Meet with a conjunction of octagonal constraints."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("meet_constraint"):
            base = (self.closure()
                    if self.closed or self._cached_closure() is not None else self)
            out = base.copy()
            was_closed = out.closed
            cons_list = list(constraints)
            for cons in cons_list:
                out._meet_constraint_cells(cons)
            if was_closed and cons_list:
                # Incremental closure is only valid when every new edge
                # is incident to one common variable's pair.
                common = set(cons_list[0].variables())
                for cons in cons_list[1:]:
                    common &= set(cons.variables())
                if common:
                    out._incremental_close(min(common))
                else:
                    out.closed = False
                    _sentinel.check(out)
        return out

    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "Octagon":
        """Meet with ``expr <= 0`` (or ``< 0``), interval-linearised.

        Octagonal-unit expressions are handled exactly; general linear
        tests contribute the unary and binary octagonal consequences
        derivable by bounding the residual in interval arithmetic.
        """
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        coeffs = {v: c for v, c in expr.coeffs.items() if c != 0.0}
        if not coeffs:
            return (self.copy() if expr.const <= 0
                    else Octagon.bottom(self.n, policy=self.policy))
        items = sorted(coeffs.items())
        constraints: List[OctConstraint] = []

        # For the unit-coefficient part P of the test P + rest <= 0, the
        # octagonal consequence is P <= sup(-rest) = -inf(rest).
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

    # ------------------------------------------------------------------
    # projections, assignments (transfer functions)
    # ------------------------------------------------------------------
    def forget(self, v: int) -> "Octagon":
        """Existentially quantify variable ``v`` (havoc)."""
        if self.is_bottom():
            return self.copy()
        closed = self.closure()
        if self._bottom:
            return self.copy()
        with stats.timed_op("forget"):
            out = closed.copy()
            m = out._write_mat()
            p0, p1 = 2 * v, 2 * v + 1
            m[[p0, p1], :] = INF
            m[:, [p0, p1]] = INF
            m[p0, p0] = 0.0
            m[p1, p1] = 0.0
            out.partition = out.partition.remove_var(v)
            out.nni = count_nni(m)
            out.closed = True  # removing edges from a closed DBM keeps it closed
        _sentinel.check(out)
        return out

    def _assign_closed_form(self, v: int, w: Optional[int],
                            write) -> "Octagon":
        """Shared frame of the closed-form assignments (Mine's exact
        octagon assignment transfer functions).

        ``write(m, p0, p1)`` overwrites ``v``'s two rows and columns in
        a copy of the closed DBM with their closed values; the other
        entries relate the remaining variables and stay closed.  The
        result equals forget, meet and incremental re-closure (section
        5.6) bit for bit, in O(n) instead of O(n^2), with the same
        partition upkeep; it charges the 8n cells it writes, where the
        re-closure would sweep ``swept_cells(2n)``.  ``w`` is the source
        of ``v := +-w + c``, ``None`` for ``v := [lo, hi]``.
        """
        closed = self.closure()
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            _budget.charge_cells(8 * self.n)  # two row/column pairs touched
            stats.bump("assign_closed_form")
            out = closed.copy()
            m = out._write_mat()
            write(m, 2 * v, 2 * v + 1)
            part = out.partition
            if w is None:
                out.partition = part.remove_var(v).merge_blocks_containing([v])
                out._merge_unary_blocks(m)
            elif not part.is_full_block():
                # A closed octagon keeps every variable with a finite
                # unary bound in one block (strengthening relates each
                # such pair), and ``v`` now has one exactly when ``w``
                # does, so joining ``v`` to ``w``'s block keeps that
                # without a diagonal scan.
                out.partition = part.remove_var(v).merge_blocks_containing([v, w])
            out.nni = count_nni(m)
            out.closed = True
            out._record_footprint()
        _sentinel.check(out)
        return out

    def _assign_bounds(self, v: int, lo: float, hi: float) -> "Octagon":
        """``v := [lo, hi]``: forget ``v``, set its unary cells and
        strengthen ``v``'s lines.  The unary edges open no path except
        through strengthening, and the rest of a closed DBM is already
        strengthened."""

        def write(m: np.ndarray, p0: int, p1: int) -> None:
            m[[p0, p1], :] = INF
            m[:, [p0, p1]] = INF
            # ``+ 0.0`` turns -0.0 into +0.0, as the incremental
            # kernel's min-plus products do for these two cells.
            if hi != INF:
                m[p1, p0] = 2.0 * hi + 0.0
            if lo != -INF:
                m[p0, p1] = 2.0 * -lo + 0.0
            ws = get_workspace(m.shape[0])
            d = m[ws.arange, ws.xor]  # d[i] = O[i, i^1]
            dx = d[ws.xor]
            # O[i, j] <- min(O[i, j], (d[i] + d[j^1]) * 0.5), the
            # expression strengthen_numpy evaluates, on v's lines only.
            np.minimum(m[p0, :], (d[p0] + dx) * 0.5, out=m[p0, :])
            np.minimum(m[p1, :], (d[p1] + dx) * 0.5, out=m[p1, :])
            np.minimum(m[:, p0], (d + dx[p0]) * 0.5, out=m[:, p0])
            np.minimum(m[:, p1], (d + dx[p1]) * 0.5, out=m[:, p1])
            m[p0, p0] = 0.0
            m[p1, p1] = 0.0

        return self._assign_closed_form(v, None, write)

    def assign_const(self, v: int, c: float) -> "Octagon":
        """``v := c``"""
        return self._assign_bounds(v, c, c)

    def assign_interval(self, v: int, lo: float, hi: float) -> "Octagon":
        """``v := [lo, hi]`` (non-deterministic choice)."""
        if lo > hi:
            return Octagon.bottom(self.n, policy=self.policy)
        if lo == -INF and hi == INF:
            return self.forget(v)
        return self._assign_bounds(v, lo, hi)

    def assign_translate(self, v: int, c: float) -> "Octagon":
        """``v := v + c`` -- exact, linear time, closure-preserving."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            p0, p1 = 2 * v, 2 * v + 1
            m = out._write_mat()
            m[p0, :] -= c
            m[p1, :] += c
            m[:, p0] += c
            m[:, p1] -= c
            m[p0, p0] = 0.0
            m[p1, p1] = 0.0
        _sentinel.check(out)
        return out

    def assign_negate(self, v: int, c: float = 0.0) -> "Octagon":
        """``v := -v + c`` -- exact: swap the signs of ``v`` then shift."""
        if self._bottom:
            return self.copy()
        with stats.timed_op("assign"):
            out = self.copy()
            p0, p1 = 2 * v, 2 * v + 1
            m = out._write_mat()
            m[[p0, p1], :] = m[[p1, p0], :]
            m[:, [p0, p1]] = m[:, [p1, p0]]
        if c != 0.0:
            return out.assign_translate(v, c)
        _sentinel.check(out)
        return out

    def assign_var(self, v: int, w: int, *, coeff: int = 1, offset: float = 0.0) -> "Octagon":
        """``v := coeff * w + offset`` with ``coeff`` in ``{-1, +1}``."""
        if coeff not in (-1, 1):
            raise ValueError("octagonal assignment needs coeff +-1")
        if w == v:
            if coeff == 1:
                return self.assign_translate(v, offset)
            return self.assign_negate(v, offset)
        q0, q1 = (2 * w, 2 * w + 1) if coeff == 1 else (2 * w + 1, 2 * w)
        c = offset

        def write(m: np.ndarray, p0: int, p1: int) -> None:
            # +v = vhat_q0 + c and -v = vhat_q1 - c: v's lines are w's
            # (sign-swapped for coeff -1), shifted.  Rows go first, so
            # the column writes also produce the unary corners
            # (m[q0, q1] - c) - c and (m[q1, q0] + c) + c.  ``x - c`` is
            # IEEE-identical to the kernel's ``(-c) + x``.
            m[p0, :] = m[q0, :] - c
            m[p1, :] = m[q1, :] + c
            m[:, p0] = m[:, q0] + c
            m[:, p1] = m[:, q1] - c
            m[p0, p0] = 0.0
            m[p1, p1] = 0.0

        return self._assign_closed_form(v, w, write)

    def assign_linexpr(self, v: int, expr: LinExpr) -> "Octagon":
        """``v := expr`` for an arbitrary linear expression.

        Octagonal shapes (``+-w + c``) are exact; other expressions are
        interval-linearised: the expression's value interval bounds the
        new ``v``, and unit-coefficient terms additionally contribute
        relational octagonal constraints (APRON-style linearisation).
        """
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
                # v = c*w + rest  =>  v - c*w in [rlo, rhi].
                if rhi != INF:
                    out._meet_constraint_cells(OctConstraint(v, 1, w, -c, rhi))
                    changed = True
                if rlo != -INF:
                    out._meet_constraint_cells(OctConstraint(v, -1, w, c, -rlo))
                    changed = True
            if changed:
                out._incremental_close(v)
        return out

    def substitute_linexpr(self, v: int, expr: LinExpr) -> "Octagon":
        """Backward assignment (APRON's *substitution*): the states
        from which executing ``v := expr`` lands inside ``self``.

        Computed with the temporary-dimension construction::

            pre = exists t . (self[v -> t] AND t = expr)

        -- add a fresh dimension ``t``, swap it with ``v`` so the
        post-condition's constraints on ``v`` move to ``t`` and ``v``
        becomes the (unconstrained) pre-state variable, meet with
        ``t = expr`` (exact for octagonal shapes, interval-linearised
        otherwise), and project ``t`` away.  Sound for every linear
        ``expr``, including self-referential ones like ``v := v + 1``.
        """
        if self._bottom:
            return self.copy()
        with stats.timed_op("substitute"):
            t = self.n  # index of the fresh dimension
            ext = self.add_dimensions(1)
            perm = list(range(ext.n))
            perm[v], perm[t] = perm[t], perm[v]
            ext = ext.permute(perm)
            # t = expr: emit octagonal consequences of the equality.
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
                    return Octagon.bottom(self.n, policy=self.policy)
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

    # ------------------------------------------------------------------
    # bounds and export
    # ------------------------------------------------------------------
    def bounds(self, v: int) -> Tuple[float, float]:
        """Interval ``[lo, hi]`` of variable ``v``."""
        if self.is_bottom():
            return (INF, -INF)
        closed = self.closure()
        if self._bottom:
            return (INF, -INF)
        ub2 = closed.mat[2 * v + 1, 2 * v]  # 2v <= ub2
        lb2 = closed.mat[2 * v, 2 * v + 1]  # -2v <= lb2
        hi = INF if not is_finite(ub2) else ub2 / 2.0
        lo = -INF if not is_finite(lb2) else -lb2 / 2.0
        return (lo, hi)

    def bound_linexpr(self, expr: LinExpr) -> Tuple[float, float]:
        """Sound interval of a linear expression's value.

        Two-variable unit expressions read the relational DBM entries
        directly; everything else uses interval arithmetic on the
        variable bounds.
        """
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
            hi_raw = closed.mat[hi_cells[0][0], hi_cells[0][1]]
            lo_raw = closed.mat[lo_cells[0][0], lo_cells[0][1]]
            hi = INF if not is_finite(hi_raw) else hi_raw + expr.const
            lo = -INF if not is_finite(lo_raw) else -lo_raw + expr.const
            ilo, ihi = expr.interval(closed.bounds)
            return (max(lo, ilo), min(hi, ihi))
        return expr.interval(closed.bounds)

    def to_box(self) -> List[Tuple[float, float]]:
        """The interval hull, one ``(lo, hi)`` pair per variable."""
        return [self.bounds(v) for v in range(self.n)]

    def to_constraints(self) -> List[OctConstraint]:
        """All non-trivial constraints of the closed DBM."""
        if self.is_bottom():
            return []
        return constraints_from_dbm(self.closure().mat)

    def contains_point(self, values: Sequence[float], *, tol: float = 1e-9) -> bool:
        """Membership test for a concrete point (used by soundness tests)."""
        if self._bottom:
            return False
        if len(values) != self.n:
            raise ValueError("point dimension mismatch")
        vals = np.asarray(values, dtype=np.float64)
        vhat = np.empty(2 * self.n)
        vhat[0::2] = vals
        vhat[1::2] = -vals
        # "Not above" rather than "at most": an infinite coordinate
        # (a value beyond float range) makes inf - inf = nan on the
        # diagonal, which violates nothing -- as in ApronOctagon.
        with np.errstate(invalid="ignore"):
            diff = vhat[None, :] - vhat[:, None]
        finite = np.isfinite(self.mat)
        return not np.any(diff[finite] > self.mat[finite] + tol)

    # ------------------------------------------------------------------
    # dimension management
    # ------------------------------------------------------------------
    def add_dimensions(self, k: int) -> "Octagon":
        """Append ``k`` fresh unconstrained variables."""
        if k < 0:
            raise ValueError("cannot add a negative number of dimensions")
        n2 = self.n + k
        out_mat = new_top(n2)
        out_mat[: 2 * self.n, : 2 * self.n] = self.mat
        part = Partition(n2, self.partition.blocks)
        return Octagon(n2, out_mat, part, self.nni + 2 * k,
                       closed=self.closed, bottom=self._bottom, policy=self.policy)

    def remove_dimensions(self, variables: Sequence[int]) -> "Octagon":
        """Project away and delete the given variables."""
        drop = sorted(set(variables))
        if any(not 0 <= v < self.n for v in drop):
            raise ValueError("variable out of range")
        cur = self
        for v in drop:
            cur = cur.forget(v)
        keep = [v for v in range(self.n) if v not in set(drop)]
        idx = expand_vars(keep)
        mat = cur.mat[np.ix_(idx, idx)].copy()
        remap = {v: i for i, v in enumerate(keep)}
        blocks = []
        for block in cur.partition.blocks:
            nb = [remap[v] for v in block if v in remap]
            if nb:
                blocks.append(nb)
        part = Partition(len(keep), blocks)
        return Octagon(len(keep), mat, part, count_nni(mat),
                       closed=cur.closed, bottom=cur._bottom, policy=self.policy)

    def permute(self, perm: Sequence[int]) -> "Octagon":
        """Rename variables: new variable ``i`` is old ``perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        idx = expand_vars(list(perm))
        mat = self.mat[np.ix_(idx, idx)].copy()
        inv = {old: new for new, old in enumerate(perm)}
        blocks = [[inv[v] for v in block] for block in self.partition.blocks]
        part = Partition(self.n, blocks)
        return Octagon(self.n, mat, part, self.nni,
                       closed=self.closed, bottom=self._bottom, policy=self.policy)

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable constraint system, one inequality per line.

        ``names`` supplies variable names (defaults to ``v0, v1, ...``).
        """
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
            return f"Octagon(n={self.n}, bottom)"
        return (f"Octagon(n={self.n}, kind={self.kind}, nni={self.nni}, "
                f"components={self.partition.block_count()}, closed={self.closed})")
