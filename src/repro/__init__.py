"""repro: a reproduction of "Making Numerical Program Analysis Fast"
(Singh, Puschel, Vechev; PLDI 2015).

The package provides:

* ``repro.core`` -- the optimised Octagon abstract domain (online
  decomposition + vectorised operators) and the APRON-style baseline;
* ``repro.domains`` -- a domain-generic protocol plus an Interval box
  domain;
* ``repro.frontend`` -- a mini imperative language (lexer, parser, CFG);
* ``repro.analysis`` -- an abstract-interpretation fixpoint engine;
* ``repro.dataflow`` -- classic dataflow analyses used as auxiliary
  analyzer components;
* ``repro.workloads`` -- the paper's 17-benchmark workload suite;
* ``repro.bench`` -- the measurement/reporting harness.
"""

from ._lazy import lazy_exports
from .core import (
    INF,
    DbmKind,
    LinExpr,
    OctConstraint,
    Octagon,
    SwitchPolicy,
)

__getattr__ = lazy_exports(__name__, {"ApronOctagon": ".core.apron_octagon"})

__version__ = "1.0.0"

__all__ = [
    "ApronOctagon",
    "DbmKind",
    "INF",
    "LinExpr",
    "OctConstraint",
    "Octagon",
    "SwitchPolicy",
    "__version__",
]
