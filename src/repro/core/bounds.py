"""Bound arithmetic for difference bound matrices.

Octagon DBM entries are *bounds* ``c`` in ``R U {+inf}``: the entry
``O[i, j] = c`` encodes the inequality ``vhat_j - vhat_i <= c``.  The
special value ``+inf`` encodes the trivial (always true) inequality.

This module centralises inf-aware arithmetic so that both the
pure-Python half-matrix backend and the NumPy backend agree on the
semantics of bound addition, halving and comparison.  All functions are
tiny and branch-free where possible; the scalar closure loops are the
hottest pure-Python code in the baseline implementation.
"""

from __future__ import annotations

import math

#: The trivial bound (the inequality always holds).
INF: float = math.inf

#: Negative infinity -- never a legal DBM entry, but useful as an
#: identity element when maximising over bounds.
NEG_INF: float = -math.inf


def is_finite(c: float) -> bool:
    """Return True if ``c`` is a non-trivial (finite) bound."""
    return c != INF and c != NEG_INF


def is_trivial(c: float) -> bool:
    """Return True if ``c`` is the trivial bound ``+inf``."""
    return c == INF


def badd(a: float, b: float) -> float:
    """Add two bounds.

    ``inf + x == inf`` for every bound ``x`` (including ``inf``); finite
    bounds add normally.  ``-inf`` never appears in well-formed DBMs, so
    we do not special-case ``inf + (-inf)``.
    """
    if a == INF or b == INF:
        return INF
    return a + b


def bmin(a: float, b: float) -> float:
    """Minimum of two bounds (the *meet* of two inequalities)."""
    return a if a <= b else b


def bmax(a: float, b: float) -> float:
    """Maximum of two bounds (the *join* of two inequalities)."""
    return a if a >= b else b


def bhalf(a: float) -> float:
    """Halve a bound; used by the strengthening step."""
    if a == INF:
        return INF
    return a / 2.0


def bounds_equal(a: float, b: float, *, tol: float = 0.0) -> bool:
    """Compare two bounds, treating two infinities as equal.

    A non-zero ``tol`` admits floating-point slack between finite
    bounds; infinite bounds must match exactly.
    """
    if a == INF or b == INF:
        return a == b
    if tol == 0.0:
        return a == b
    return abs(a - b) <= tol
