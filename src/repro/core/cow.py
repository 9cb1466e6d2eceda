"""Copy-on-write DBM storage (the analyzer hot-path memory layer).

The analyzer copies abstract states constantly: the fixpoint engine
seeds every CFG node with ``bottom.copy()``, every transfer function
copies before it tightens, and every lattice operator returns a fresh
octagon.  Most of those copies are never written again -- they are
snapshots held for comparison (``is_leq``), cache entries, or
by-convention defensive copies.  Paying a full ``2n x 2n`` float64 copy
for each of them is pure representation overhead of the kind the paper
(and Jourdan's "Sparsity Preserving Algorithms for Octagons") blames
for real-world analyzer cost.

:class:`CowMat` makes ``copy()`` O(1): a clone aliases the same NumPy
matrix and both sides share an owner count.  The *first write* through
either side calls :meth:`materialize`, which copies the matrix only if
it is still shared.  A per-handle ``version`` stamp counts writes, so
callers (e.g. :meth:`Octagon.closure`) can keep derived caches valid
across aliases and detect staleness without comparing matrices.

The module-level switch :func:`set_enabled` (and the :func:`disabled`
context manager) turns cloning back into eager copying; the
``cow_workspace`` gate of ``benchmarks/bench_gates.py`` uses it to
measure the pre-COW baseline in-process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from ..obs import metrics
from . import stats

_ENABLED = True

# Clone/materialisation events are counted in plain module globals --
# they fire tens of thousands of times per analysis, so per-event
# collector dispatch would be measurable overhead on the very hot path
# this module exists to speed up.  Collectors snapshot the globals on
# entry and read the delta (see ``stats.register_counter_source``).
_CLONES = 0
_MATERIALIZATIONS = 0

stats.register_counter_source(
    lambda: {"cow_clones": _CLONES,
             "cow_materializations": _MATERIALIZATIONS})

metrics.REGISTRY.counter(
    "copies_avoided", "Matrix copies the COW layer never performed",
    derive=lambda m: (m.get("cow_clones", 0)
                      - m.get("cow_materializations", 0)))
metrics.REGISTRY.counter("cow_clones", "O(1) copy-on-write clone events")
metrics.REGISTRY.counter("cow_materializations",
                         "COW clones that later paid a real copy")


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable lazy cloning; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def is_enabled() -> bool:
    return _ENABLED


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with eager (pre-COW) copy semantics."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


class CowMat:
    """A DBM matrix handle with copy-on-write sharing.

    ``arr`` is the NumPy matrix.  ``_owners`` is a one-element list
    shared by every handle aliasing the same array -- the mutable cell
    holds the live-owner count, decremented both when a handle breaks
    the sharing (copy-on-write) and when it is garbage collected, so a
    surviving sole owner can write in place without copying.

    ``version`` counts the writes observed *through this handle*; it
    only ever changes via :meth:`written` and survives cloning, which
    lets a cache entry stamped with the version at fill time be
    validated later with one integer compare.
    """

    __slots__ = ("arr", "version", "_owners")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.version = 0
        self._owners: List[int] = [1]

    def clone(self) -> "CowMat":
        """O(1) aliasing copy (or an eager copy when COW is disabled)."""
        if not _ENABLED:
            return CowMat(self.arr.copy())
        global _CLONES
        out = CowMat.__new__(CowMat)
        out.arr = self.arr
        out.version = self.version
        out._owners = self._owners
        self._owners[0] += 1
        _CLONES += 1
        return out

    def materialize(self) -> np.ndarray:
        """Return the array with exclusive ownership, copying if shared."""
        owners = self._owners
        if owners[0] > 1:
            global _MATERIALIZATIONS
            owners[0] -= 1
            self.arr = self.arr.copy()
            self._owners = [1]
            _MATERIALIZATIONS += 1
        return self.arr

    def written(self) -> np.ndarray:
        """Materialize for an in-place write and bump the version stamp."""
        arr = self.materialize()
        self.version += 1
        return arr

    @property
    def shared(self) -> bool:
        return self._owners[0] > 1

    def __del__(self):
        try:
            self._owners[0] -= 1
        except (AttributeError, TypeError):  # partially-initialised handle
            pass
