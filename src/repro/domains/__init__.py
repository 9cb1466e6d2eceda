"""Abstract-domain layer: the protocol the analyzer is generic over,
plus a non-relational Interval (box) domain used as a cheap baseline
and in examples."""

from .._lazy import lazy_exports
from .domain import (AbstractDomain, ConfiguredOctagonFactory, DomainFactory,
                     get_domain)
from .interval import Interval

__getattr__ = lazy_exports(__name__, {
    "ConfiguredSparseOctagonFactory": ".sparse_octagon",
    "Pentagon": ".pentagon",
    "SparseOctagon": ".sparse_octagon",
    "Zone": ".zone",
})

__all__ = [
    "AbstractDomain",
    "ConfiguredOctagonFactory",
    "ConfiguredSparseOctagonFactory",
    "DomainFactory",
    "get_domain",
    "Interval",
    "Pentagon",
    "SparseOctagon",
    "Zone",
]
