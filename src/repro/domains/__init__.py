"""Abstract-domain layer: the protocol the analyzer is generic over,
plus a non-relational Interval (box) domain used as a cheap baseline
and in examples."""

from .._lazy import lazy_exports
from .domain import (AbstractDomain, ConfiguredOctagonFactory, DomainFactory,
                     get_domain)
from .interval import Interval

__getattr__ = lazy_exports(__name__, {
    "Pentagon": ".pentagon",
    "Zone": ".zone",
})

__all__ = [
    "AbstractDomain",
    "ConfiguredOctagonFactory",
    "DomainFactory",
    "get_domain",
    "Interval",
    "Pentagon",
    "Zone",
]
