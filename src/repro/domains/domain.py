"""The abstract-domain protocol used by the analyzer substrate.

The fixpoint engine and the transfer functions are generic over any
class implementing this structural protocol.  Three implementations
ship with the library:

* :class:`repro.core.Octagon` -- the optimised octagon (the paper's
  contribution),
* :class:`repro.core.ApronOctagon` -- the scalar APRON baseline,
* :class:`repro.domains.interval.Interval` -- a non-relational box
  domain.

``DomainFactory`` bundles the class-level constructors so callers can
pass a domain around as a value (e.g. ``get_domain("octagon")``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Protocol, Sequence, Tuple, runtime_checkable

from ..core.constraints import LinExpr, OctConstraint
from ..core.octagon import Octagon


@runtime_checkable
class AbstractDomain(Protocol):
    """Structural interface every abstract state must provide."""

    n: int

    # predicates
    def is_bottom(self) -> bool: ...
    def is_top(self) -> bool: ...
    def is_leq(self, other: "AbstractDomain") -> bool: ...
    def is_eq(self, other: "AbstractDomain") -> bool: ...

    # lattice
    def meet(self, other: "AbstractDomain") -> "AbstractDomain": ...
    def join(self, other: "AbstractDomain") -> "AbstractDomain": ...
    def widening(self, other: "AbstractDomain") -> "AbstractDomain": ...
    def narrowing(self, other: "AbstractDomain") -> "AbstractDomain": ...

    # transfer
    def forget(self, v: int) -> "AbstractDomain": ...
    def assign_const(self, v: int, c: float) -> "AbstractDomain": ...
    def assign_interval(self, v: int, lo: float, hi: float) -> "AbstractDomain": ...
    def assign_linexpr(self, v: int, expr: LinExpr) -> "AbstractDomain": ...
    def assume_linear(self, expr: LinExpr, *, strict: bool = False) -> "AbstractDomain": ...
    def meet_constraint(self, cons: OctConstraint) -> "AbstractDomain": ...

    # queries
    def bounds(self, v: int) -> Tuple[float, float]: ...
    def bound_linexpr(self, expr: LinExpr) -> Tuple[float, float]: ...
    def copy(self) -> "AbstractDomain": ...


@dataclass(frozen=True)
class DomainFactory:
    """A named constructor bundle for one abstract domain."""

    name: str
    cls: Any

    def top(self, n: int) -> AbstractDomain:
        return self.cls.top(n)

    def bottom(self, n: int) -> AbstractDomain:
        return self.cls.bottom(n)

    def from_box(self, bounds: Sequence[Tuple[float, float]]) -> AbstractDomain:
        return self.cls.from_box(bounds)


@dataclass(frozen=True)
class ConfiguredOctagonFactory:
    """An octagon factory with a custom switching policy.

    Used by the ablation benchmarks to sweep the sparsity threshold
    ``t`` and to switch the online decomposition off entirely.
    """

    policy: object  # SwitchPolicy
    name: str = "octagon"

    def top(self, n: int) -> AbstractDomain:
        return Octagon.top(n, policy=self.policy)

    def bottom(self, n: int) -> AbstractDomain:
        return Octagon.bottom(n, policy=self.policy)

    def from_box(self, bounds: Sequence[Tuple[float, float]]) -> AbstractDomain:
        return Octagon.from_box(bounds, policy=self.policy)


# name -> (module relative to this package, class); a domain's module
# is imported the first time the domain is asked for.
_REGISTRY: Dict[str, Tuple[str, str]] = {
    "octagon": ("..core.octagon", "Octagon"),
    "apron": ("..core.apron_octagon", "ApronOctagon"),
    "interval": (".interval", "Interval"),
    "zone": (".zone", "Zone"),
    "pentagon": (".pentagon", "Pentagon"),
}

# The factories built so far, by name.
_FACTORIES: Dict[str, DomainFactory] = {}


def get_domain(name: str) -> DomainFactory:
    """Look up a factory: octagon | apron | interval | zone | pentagon."""
    factory = _FACTORIES.get(name)
    if factory is None:
        try:
            module, attr = _REGISTRY[name]
        except KeyError:
            raise KeyError(f"unknown domain {name!r}; "
                           f"available: {sorted(_REGISTRY)}") from None
        cls = getattr(importlib.import_module(module, __package__), attr)
        factory = _FACTORIES[name] = DomainFactory(name, cls)
    return factory
