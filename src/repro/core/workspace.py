"""Reusable per-dimension kernel workspaces (hot-path memory layer).

Every closure call used to rebuild the same auxiliary arrays from
scratch: ``np.arange(dim)`` index vectors, the ``i ^ 1`` coherence
permutation, a ``dim x dim`` scratch matrix for the min-plus updates,
boolean masks for the sparsity counts, and the packed-index tables of
the half representation.  In a fixpoint loop the analyzer closes
matrices of the *same* dimension thousands of times (Table 2), so all
of that allocation is pure constant-factor waste.

:class:`Workspace` bundles those buffers for one dimension; the
module-level registry hands out one workspace per ``dim`` and the
kernels in ``closure_dense``/``closure_sparse``/``closure_decomposed``/
``closure_incremental`` (plus ``strengthen`` and ``densemat``) draw
their scratch from it, so repeated closures at one dimension perform
zero buffer allocations.

Scratch buffers hold *unspecified* data between calls; a kernel must
fully overwrite a buffer before reading it (all users follow the
write-then-consume discipline).  The registry is **thread-local**: the
analysis server (``repro/serve``) runs fixpoints on concurrent
threads, and a shared scratch matrix raced between two closures of the
same dimension corrupts both.  Each thread pays its own one-time
allocation per dimension and then reuses its buffers freely.  Constant
tables (``arange``, ``xor``, ``lower_mask``, packed indices) are
read-only by convention.

:func:`set_enabled`/:func:`disabled` switch the registry off (a fresh
workspace per request), which restores the pre-optimisation allocation
behaviour for the baseline side of the ``cow_workspace`` gate in
``benchmarks/bench_gates.py``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from ..obs import metrics
from . import stats
from .indexing import cap, half_size, matpos2

_ENABLED = True

# Hit/miss counts live in module globals for the same reason as the
# COW clone counters: per-event collector dispatch is too expensive at
# this call frequency (see ``stats.register_counter_source``).
_HITS = 0
_MISSES = 0

stats.register_counter_source(
    lambda: {"workspace_hits": _HITS, "workspace_misses": _MISSES})

metrics.REGISTRY.counter("workspace_hits",
                         "Kernel scratch buffers reused from the registry")
metrics.REGISTRY.counter("workspace_misses",
                         "Kernel scratch buffers freshly allocated")


def set_enabled(flag: bool) -> bool:
    """Enable/disable workspace reuse; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def is_enabled() -> bool:
    return _ENABLED


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with per-call buffer allocation (pre-workspace)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


class PackedIndex:
    """Precomputed gather/scatter indices of the packed half DBM.

    * ``idx[i, j]`` -- packed offset of ``O[i, j]`` for any coordinate
      (``matpos2`` as a 2n x 2n table), used to materialise "virtual"
      full rows, the paper's contiguous scratch buffers.
    * ``rows``/``cols`` -- for every packed slot, its (lower-triangle)
      row and column coordinate; drive the bulk update gathers.
    * ``cols_bar`` -- ``cols ^ 1``, for strengthening.
    * ``diag``/``unary`` -- packed offsets of ``O[i, i]`` and
      ``O[i, i^1]``.
    """

    __slots__ = ("n", "idx", "rows", "cols", "cols_bar", "diag", "unary")

    def __init__(self, n: int):
        self.n = n
        dim = 2 * n
        idx = np.empty((dim, dim), dtype=np.int64)
        for i in range(dim):
            for j in range(dim):
                idx[i, j] = matpos2(i, j)
        self.idx = idx
        size = half_size(n)
        rows = np.empty(size, dtype=np.int64)
        cols = np.empty(size, dtype=np.int64)
        for i in range(dim):
            base = (i + 1) * (i + 1) // 2
            for j in range(cap(i) + 1):
                rows[base + j] = i
                cols[base + j] = j
        self.rows = rows
        self.cols = cols
        self.cols_bar = cols ^ 1
        ar = np.arange(dim)
        self.diag = idx[ar, ar].copy()
        self.unary = idx[ar, ar ^ 1].copy()


class Workspace:
    """Scratch buffers and constant index tables for one dimension."""

    __slots__ = ("dim", "arange", "xor", "_scratch", "_scratch2",
                 "_bool_scratch", "_lower_mask", "_vecs", "_packed")

    def __init__(self, dim: int):
        self.dim = dim
        self.arange = np.arange(dim)
        self.xor = self.arange ^ 1
        self._scratch: Optional[np.ndarray] = None
        self._scratch2: Optional[np.ndarray] = None
        self._bool_scratch: Optional[np.ndarray] = None
        self._lower_mask: Optional[np.ndarray] = None
        self._vecs: Dict[str, np.ndarray] = {}
        self._packed: Optional[PackedIndex] = None

    # -- scratch matrices (contents unspecified between calls) ----------
    @property
    def scratch(self) -> np.ndarray:
        """Primary ``dim x dim`` float64 scratch matrix."""
        if self._scratch is None:
            self._scratch = np.empty((self.dim, self.dim), dtype=np.float64)
        return self._scratch

    @property
    def scratch2(self) -> np.ndarray:
        """Secondary ``dim x dim`` float64 scratch matrix."""
        if self._scratch2 is None:
            self._scratch2 = np.empty((self.dim, self.dim), dtype=np.float64)
        return self._scratch2

    @property
    def bool_scratch(self) -> np.ndarray:
        """``dim x dim`` boolean scratch (masks, finiteness tests)."""
        if self._bool_scratch is None:
            self._bool_scratch = np.empty((self.dim, self.dim), dtype=bool)
        return self._bool_scratch

    def vec(self, name: str) -> np.ndarray:
        """A named ``(dim,)`` float64 scratch vector."""
        buf = self._vecs.get(name)
        if buf is None:
            buf = np.empty(self.dim, dtype=np.float64)
            self._vecs[name] = buf
        return buf

    # -- constant tables (read-only by convention) -----------------------
    @property
    def lower_mask(self) -> np.ndarray:
        """Boolean mask of the stored coherent half: ``j <= (i | 1)``."""
        if self._lower_mask is None:
            i = self.arange[:, None]
            j = self.arange[None, :]
            self._lower_mask = j <= (i | 1)
        return self._lower_mask

    @property
    def packed(self) -> PackedIndex:
        """Packed half-DBM index tables (octagon dims only: ``dim = 2n``)."""
        if self._packed is None:
            if self.dim % 2:
                raise ValueError("packed indices need an even dimension")
            self._packed = PackedIndex(self.dim // 2)
        return self._packed


_LOCAL = threading.local()


def _registry() -> Dict[int, Workspace]:
    reg = getattr(_LOCAL, "registry", None)
    if reg is None:
        reg = _LOCAL.registry = {}
    return reg


def get_workspace(dim: int) -> Workspace:
    """This thread's workspace for ``dim`` (fresh per call when disabled)."""
    global _HITS, _MISSES
    if not _ENABLED:
        return Workspace(dim)
    registry = _registry()
    ws = registry.get(dim)
    if ws is None:
        ws = Workspace(dim)
        registry[dim] = ws
        _MISSES += 1
    else:
        _HITS += 1
    return ws


def clear() -> None:
    """Drop this thread's cached workspaces (tests, memory pressure)."""
    _registry().clear()
