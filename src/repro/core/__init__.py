"""Core of the reproduction: the optimised Octagon abstract domain.

Public surface:

* :class:`Octagon` -- the optimised domain element (online
  decomposition, sparse/dense/decomposed/top DBM kinds, vectorised
  closure).
* :class:`ApronOctagon` -- the APRON-faithful scalar baseline.
* :class:`OctConstraint` / :class:`LinExpr` -- the constraint language.
* :class:`SwitchPolicy` / :class:`DbmKind` -- the type-switching knobs.
* :class:`Budget` -- cooperative resource budgets (wall clock,
  iterations, DBM cells) for governed analysis runs.
* :mod:`repro.core.sentinel` -- the opt-in paranoid DBM integrity
  sentinel (``REPRO_PARANOID=1``).
* :mod:`repro.core.stats` -- instrumentation used by the benchmarks.
"""

from .._lazy import lazy_exports
from .bounds import INF, NEG_INF
from .budget import Budget
from .constraints import LinExpr, OctConstraint
from .kinds import DEFAULT_POLICY, DbmKind, SwitchPolicy
from .octagon import Octagon
from .partition import Partition
from .sentinel import paranoid_enabled, set_paranoid

__getattr__ = lazy_exports(__name__, {"ApronOctagon": ".apron_octagon"})

__all__ = [
    "ApronOctagon",
    "Budget",
    "DbmKind",
    "DEFAULT_POLICY",
    "INF",
    "LinExpr",
    "NEG_INF",
    "OctConstraint",
    "Octagon",
    "Partition",
    "SwitchPolicy",
    "paranoid_enabled",
    "set_paranoid",
]
