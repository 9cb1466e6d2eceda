"""Cooperative resource budgets for analysis runs.

A :class:`Budget` bounds one analysis attempt along three axes:

* **wall-clock deadline** (``time_limit`` seconds from construction),
* **iteration cap** (fixpoint recomputations across all loops),
* **DBM-cell cap** (cumulative cells pushed through closure kernels --
  a proxy for the memory traffic that explodes when a decomposed
  octagon densifies).

The fixpoint engines call :meth:`Budget.checkpoint` once per node
recomputation; the octagon closure kernels charge their matrix area
through the *ambient* budget (:func:`charge_cells`) so deep call
chains need no explicit threading.  Checkpoints are cheap -- an
attribute bump plus one ``time.monotonic()`` call -- and when no
budget is active the ambient hooks reduce to a single global ``None``
test, so the un-governed hot path pays nothing measurable
(the ``checkpoint`` gate of ``benchmarks/bench_gates.py`` bounds the
overhead at 2% on the 17-benchmark suite).

Exhaustion raises :class:`repro.errors.BudgetExceeded`; the engines
convert that into :class:`repro.errors.AnalysisInterrupted` carrying
the partial invariant map, and the analyzer's degradation ladder
reacts by retrying the procedure in a cheaper domain.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import BudgetExceeded
from ..obs import metrics
from . import stats

# Checkpoints fire once per fixpoint iteration and once per closure --
# frequent enough that per-event collector dispatch would be
# measurable, so they are counted in a module global and reported as a
# delta (see ``stats.register_counter_source``).
_CHECKPOINTS = 0

stats.register_counter_source(lambda: {"budget_checkpoints": _CHECKPOINTS})

metrics.REGISTRY.counter("budget_checkpoints",
                         "Cooperative budget checks performed")
metrics.REGISTRY.counter("budget_interrupts",
                         "Analyses interrupted by an exhausted budget")
metrics.REGISTRY.counter("closure_cells",
                         "DBM cells charged by closure kernels; incremental "
                         "re-closures and closed-form assignments charge 8n")


class Budget:
    """One attempt's resource envelope.  Not thread-safe (one per run)."""

    __slots__ = ("time_limit", "max_iterations", "max_cells",
                 "deadline", "iterations", "cells")

    def __init__(self, *, time_limit: Optional[float] = None,
                 max_iterations: Optional[int] = None,
                 max_cells: Optional[int] = None):
        self.time_limit = time_limit
        self.max_iterations = max_iterations
        self.max_cells = max_cells
        self.deadline = (None if time_limit is None
                         else time.monotonic() + float(time_limit))
        self.iterations = 0
        self.cells = 0

    @property
    def bounded(self) -> bool:
        return (self.deadline is not None or self.max_iterations is not None
                or self.max_cells is not None)

    def checkpoint(self) -> None:
        """One unit of fixpoint work; raises on an exhausted budget."""
        global _CHECKPOINTS
        _CHECKPOINTS += 1
        self.iterations += 1
        if (self.max_iterations is not None
                and self.iterations > self.max_iterations):
            raise BudgetExceeded(
                "iterations",
                f"iteration budget exhausted ({self.max_iterations})",
                spent=self.iterations, limit=self.max_iterations)
        self._check_deadline()

    def charge_cells(self, amount: int) -> None:
        """Account ``amount`` DBM cells of closure-kernel traffic."""
        global _CHECKPOINTS
        _CHECKPOINTS += 1
        self.cells += int(amount)
        if self.max_cells is not None and self.cells > self.max_cells:
            raise BudgetExceeded(
                "cells",
                f"DBM-cell budget exhausted ({self.cells} > {self.max_cells})",
                spent=self.cells, limit=self.max_cells)
        self._check_deadline()

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                "deadline",
                f"wall-clock budget exhausted ({self.time_limit:g}s)",
                spent=self.time_limit or 0.0, limit=self.time_limit or 0.0)

    def __repr__(self) -> str:
        return (f"Budget(time_limit={self.time_limit}, "
                f"max_iterations={self.max_iterations}, "
                f"max_cells={self.max_cells}, iterations={self.iterations}, "
                f"cells={self.cells})")


#: Floor for deadline-derived time budgets: a request that arrives with
#: (almost) no time left still gets a sliver of budget, so the analyzer
#: runs its degradation ladder and returns a sound ``degraded`` answer
#: instead of dividing by a zero-second budget.
MIN_TIME_BUDGET = 1e-3


def clamp_to_deadline(time_budget: Optional[float],
                      deadline: Optional[float]) -> Optional[float]:
    """Tighten ``time_budget`` to a monotonic ``deadline``.

    ``deadline`` is an absolute :func:`time.monotonic` instant (the
    serve request's drop-dead time); the result is the smaller of the
    job's own time budget and the seconds remaining until the deadline,
    floored at :data:`MIN_TIME_BUDGET`.  ``None`` deadline leaves the
    budget untouched; both ``None`` stays unbounded.
    """
    if deadline is None:
        return time_budget
    remaining = max(MIN_TIME_BUDGET, deadline - time.monotonic())
    if time_budget is None:
        return remaining
    return min(float(time_budget), remaining)


# ----------------------------------------------------------------------
# ambient budget: lets closure kernels checkpoint without threading a
# Budget object through every domain operation
# ----------------------------------------------------------------------
_ACTIVE: Optional[Budget] = None


def active_budget() -> Optional[Budget]:
    return _ACTIVE


@contextmanager
def governed(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` as the ambient budget for the block.

    ``governed(None)`` is a no-op scope, so engines can wrap their
    solve loop unconditionally.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = budget
    try:
        yield budget
    finally:
        _ACTIVE = previous


def _forget_in_child() -> None:
    # A pool worker forked while another thread of its parent analyzed
    # under a budget must not inherit that budget: the thread that owns
    # it does not exist in the child.
    global _ACTIVE
    _ACTIVE = None


os.register_at_fork(after_in_child=_forget_in_child)


def charge_cells(amount: int) -> None:
    """Charge closure-kernel traffic to the ambient budget, if any, and
    count it in the ``closure_cells`` counter."""
    if _ACTIVE is not None:
        _ACTIVE.charge_cells(amount)
    stats.bump("closure_cells", amount)


__all__ = ["Budget", "MIN_TIME_BUDGET", "active_budget", "charge_cells",
           "clamp_to_deadline", "governed"]
