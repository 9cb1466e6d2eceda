"""Shared error taxonomy for the analyzer and the batch service.

Historically each layer raised bare ``RuntimeError``/``ValueError``
with ad-hoc message strings; callers that wanted to react (retry a
dead worker, degrade an over-budget analysis, evict a corrupt cache
entry) had to pattern-match on text.  This module is the one place
those failure modes are named:

* :class:`BudgetExceeded` -- a cooperative resource budget (wall-clock
  deadline, iteration cap, DBM-cell cap) was exhausted at a
  checkpoint.  Raised by :class:`repro.core.budget.Budget`.
* :class:`AnalysisInterrupted` -- a fixpoint computation stopped before
  convergence (budget exhaustion or the engine's iteration backstop).
  Carries the *partial* invariant map computed so far -- useful for
  diagnostics, but **not sound** as an analysis result; the
  degradation ladder in :class:`repro.analysis.analyzer.Analyzer`
  reacts by re-running the procedure in a cheaper domain.
* :class:`CacheCorrupt` -- a persistent cache entry failed validation
  (unparsable JSON, schema/version mismatch).  The cache evicts the
  entry and treats the lookup as a miss.
* :class:`WorkerDied` -- a batch worker process exited without
  reporting a result (segfault, OOM-kill, injected fault).
* :class:`IntegrityError` -- the paranoid-mode DBM sentinel
  (:mod:`repro.core.sentinel`) found a structural invariant violated:
  incoherent matrix, stale closed flag, wrong ``nni``, or an invalid
  COW/closure-cache stamp.

``BudgetExceeded`` and ``AnalysisInterrupted`` also subclass
``RuntimeError`` so code (and tests) written against the old bare
raises keep working.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of every library-defined error."""


class BudgetExceeded(ReproError, RuntimeError):
    """A resource budget was exhausted at a cooperative checkpoint.

    ``reason`` is one of ``"deadline"``, ``"iterations"`` or
    ``"cells"``; ``spent``/``limit`` quantify the exhausted resource.
    """

    def __init__(self, reason: str, message: str, *,
                 spent: float = 0.0, limit: float = 0.0):
        super().__init__(message)
        self.reason = reason
        self.spent = spent
        self.limit = limit


class AnalysisInterrupted(ReproError, RuntimeError):
    """A fixpoint run stopped before convergence.

    ``partial_states`` maps every node to its invariant at the moment
    of interruption (best effort; may be ``None``): the states the
    solve held, plus the nodes it keeps no state for, filled in from
    those in one forward pass (one transfer per node) outside the
    exhausted budget.  The map is *not* a
    sound fixpoint -- nodes not yet stabilised under-approximate their
    true invariant -- so no verdict may be discharged from it.
    ``reason`` mirrors :class:`BudgetExceeded` (plus ``"iterations"``
    for the engine's own convergence backstop).
    """

    def __init__(self, reason: str, message: str, *,
                 partial_states: Optional[dict] = None,
                 iterations: int = 0):
        super().__init__(message)
        self.reason = reason
        self.partial_states = partial_states
        self.iterations = iterations


class CacheCorrupt(ReproError):
    """A persistent cache entry failed validation and was evicted."""

    def __init__(self, path, detail: str):
        super().__init__(f"corrupt cache entry {path}: {detail}")
        self.path = path
        self.detail = detail


class WorkerDied(ReproError):
    """A pool worker exited without reporting (crash, kill, OOM)."""

    def __init__(self, exit_code: Optional[int], *,
                 stage: str = "before reporting"):
        super().__init__(f"worker died {stage} (exit code {exit_code})")
        self.exit_code = exit_code


class JobRaised(WorkerDied):
    """A pool job raised in its worker, which survived; the message is
    the worker-side traceback."""

    def __init__(self, traceback_text: str):
        ReproError.__init__(self, traceback_text)
        self.exit_code = 0


class IntegrityError(ReproError):
    """The paranoid DBM sentinel found a structural invariant violated."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"DBM integrity violation [{check}]: {detail}")
        self.check = check
        self.detail = detail


__all__ = [
    "AnalysisInterrupted",
    "BudgetExceeded",
    "CacheCorrupt",
    "IntegrityError",
    "JobRaised",
    "ReproError",
    "WorkerDied",
]
