"""Unit tests for inf-aware bound arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bounds import (
    INF,
    NEG_INF,
    badd,
    bhalf,
    bmax,
    bmin,
    bounds_equal,
    is_finite,
    is_trivial,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
bound = st.one_of(finite, st.just(INF))


class TestPredicates:
    def test_inf_is_trivial(self):
        assert is_trivial(INF)
        assert not is_trivial(0.0)
        assert not is_trivial(-1e300)

    def test_finite(self):
        assert is_finite(3.5)
        assert is_finite(0.0)
        assert not is_finite(INF)
        assert not is_finite(NEG_INF)


class TestAdd:
    def test_inf_absorbs(self):
        assert badd(INF, 5.0) == INF
        assert badd(5.0, INF) == INF
        assert badd(INF, INF) == INF

    @given(finite, finite)
    def test_finite_add(self, a, b):
        assert badd(a, b) == a + b


class TestMinMax:
    @given(bound, bound)
    def test_bmin_is_min(self, a, b):
        assert bmin(a, b) == min(a, b)

    @given(bound, bound)
    def test_bmax_is_max(self, a, b):
        assert bmax(a, b) == max(a, b)

    @given(bound)
    def test_min_with_inf_is_identity(self, a):
        assert bmin(a, INF) == a
        assert bmax(a, INF) == INF


class TestHalving:
    def test_half_inf(self):
        assert bhalf(INF) == INF

    @given(finite)
    def test_half_finite(self, a):
        assert bhalf(a) == a / 2.0


class TestEquality:
    def test_inf_equal(self):
        assert bounds_equal(INF, INF)
        assert not bounds_equal(INF, 1e308)

    def test_tolerance_applies_to_finite_only(self):
        assert bounds_equal(1.0, 1.0 + 1e-12, tol=1e-9)
        assert not bounds_equal(1.0, 1.1, tol=1e-9)
        assert not bounds_equal(INF, 1.0, tol=1e9)
