"""The closure kernels: one named entry point per hot numeric kernel.

The closure kernels are where the cycles are -- the paper's own claim,
and the reason PRs 1/3 attacked their memory layer and call frequency.
Every caller reaches them through this module, so one place counts
them and one place can be timed from outside:

====================  =====================================================
``dense_closure``      full coherent-DBM closure (shortest path +
                       strengthening), in place, returns ``True`` iff empty
``dense_shortest_path``  shortest-path step only (decomposed components)
``sparse_shortest_path`` index-driven shortest path, returns candidate count
``sparse_closure``     sparse shortest path + sparse strengthening
``strengthen_sparse``  finite-diagonal strengthening, returns update count
``incremental_closure``  quadratic re-closure around one variable
``strengthen``         full vectorised strengthening
``count_nni``          finite-entry count of the stored half (the NNI pass)
``apron_closure``      the scalar APRON baseline closure on the half layout
====================  =====================================================

Each entry point is its own function that calls the NumPy
implementation, so wrapping one (a profiler, the benchmark's layer
table) never touches the implementation object other modules import.
"""

from __future__ import annotations

from typing import Optional

from ...obs import metrics
from ..closure_apron import closure_apron
from ..closure_dense import closure_dense_numpy, shortest_path_dense_numpy
from ..closure_incremental import incremental_closure as _incremental_closure
from ..closure_sparse import closure_sparse, shortest_path_sparse
from ..densemat import count_nni as _count_nni
from ..stats import OpCounter
from ..strengthen import strengthen_numpy, strengthen_sparse_numpy

# Kernel invocations are counted in a module global, like the COW clone
# counters: kernels fire tens of thousands of times per analysis, so
# per-event collector dispatch would be measurable overhead on the very
# path it counts (collectors snapshot the global and report deltas via
# ``stats.register_counter_source``).
_CALLS = 0

metrics.register_counter_source(lambda: {"kernel_calls": _CALLS})
metrics.REGISTRY.counter("kernel_calls", "Closure-kernel invocations")


def dense_closure(m, counter: Optional[OpCounter] = None) -> bool:
    """Full dense closure on a coherent DBM, in place; True iff empty."""
    global _CALLS
    _CALLS += 1
    return closure_dense_numpy(m, counter)


def dense_shortest_path(m, counter: Optional[OpCounter] = None) -> None:
    """Shortest-path step only (decomposed component submatrices)."""
    global _CALLS
    _CALLS += 1
    return shortest_path_dense_numpy(m, counter)


def sparse_shortest_path(m, counter: Optional[OpCounter] = None) -> int:
    """Index-driven shortest path; returns the candidate-update count."""
    global _CALLS
    _CALLS += 1
    return shortest_path_sparse(m, counter)


def sparse_closure(m, counter: Optional[OpCounter] = None) -> bool:
    """Sparse closure (index-driven + sparse strengthening)."""
    global _CALLS
    _CALLS += 1
    return closure_sparse(m, counter)


def strengthen_sparse(m) -> int:
    """Finite-diagonal strengthening; returns the update count."""
    global _CALLS
    _CALLS += 1
    return strengthen_sparse_numpy(m)


def incremental_closure(m, v: int, counter: Optional[OpCounter] = None) -> bool:
    """Quadratic re-closure after changes confined to variable ``v``."""
    global _CALLS
    _CALLS += 1
    return _incremental_closure(m, v, counter)


def strengthen(m) -> None:
    """Full vectorised strengthening on a coherent DBM, in place."""
    global _CALLS
    _CALLS += 1
    strengthen_numpy(m)


def count_nni(m) -> int:
    """Finite entries of the stored half (the paper's ``nni`` pass)."""
    global _CALLS
    _CALLS += 1
    return _count_nni(m)


def apron_closure(half, counter: Optional[OpCounter] = None) -> bool:
    """The APRON baseline closure on a :class:`HalfMat`; True iff empty."""
    global _CALLS
    _CALLS += 1
    return closure_apron(half, counter)
