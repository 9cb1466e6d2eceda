"""Differential tests for the extended (API-parity) operations:
dimension management, thresholds widening and substitution must agree
between the optimised Octagon and the APRON baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbm_strategies import dbm_entries, make_coherent_dbm
from repro.core import ApronOctagon, LinExpr, Octagon, OctConstraint
from repro.core.halfmat import HalfMat


def make_pair(n, entries):
    mat = make_coherent_dbm(n, entries)
    return Octagon.from_matrix(mat), ApronOctagon(n, HalfMat.from_full(mat))


def equal_state(o: Octagon, a: ApronOctagon) -> bool:
    if o.is_bottom() or a.is_bottom():
        return o.is_bottom() == a.is_bottom()
    co, ca = o.closure(), a.closure()
    if o.is_bottom() or a.is_bottom():
        return o.is_bottom() == a.is_bottom()
    full = ca.half.to_full()
    return np.allclose(np.where(np.isinf(co.mat), 1e300, co.mat),
                       np.where(np.isinf(full), 1e300, full))


SET = settings(max_examples=40, deadline=None)


class TestDimensionParity:
    @SET
    @given(st.integers(2, 5), st.data())
    def test_add_dimensions(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 15)))
        k = data.draw(st.integers(1, 3))
        assert equal_state(o.add_dimensions(k), a.add_dimensions(k))

    @SET
    @given(st.integers(2, 5), st.data())
    def test_remove_dimensions(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 15)))
        drop = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n - 1, unique=True))
        assert equal_state(o.remove_dimensions(drop), a.remove_dimensions(drop))

    @SET
    @given(st.integers(2, 5), st.data())
    def test_permute(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 15)))
        perm = data.draw(st.permutations(range(n)))
        assert equal_state(o.permute(list(perm)), a.permute(list(perm)))

    def test_apron_permute_validation(self):
        with pytest.raises(ValueError):
            ApronOctagon.top(2).permute([0, 0])
        with pytest.raises(ValueError):
            ApronOctagon.top(2).add_dimensions(-1)
        with pytest.raises(ValueError):
            ApronOctagon.top(2).remove_dimensions([5])


class TestWideningThresholdsParity:
    @SET
    @given(st.integers(1, 4), st.data())
    def test_thresholds_agree(self, n, data):
        o1, a1 = make_pair(n, data.draw(dbm_entries(n, 12)))
        o2, a2 = make_pair(n, data.draw(dbm_entries(n, 12)))
        ts = sorted(data.draw(st.lists(st.integers(-5, 30).map(float),
                                       min_size=1, max_size=4, unique=True)))
        ow = o1.widening_thresholds(o2, ts)
        aw = a1.widening_thresholds(a2, ts)
        assert equal_state(ow, aw)

    def test_threshold_bumps_to_next(self):
        a1 = ApronOctagon.from_box([(0.0, 1.0)])
        a2 = ApronOctagon.from_box([(0.0, 3.0)])
        w = a1.widening_thresholds(a2, [5.0, 10.0])
        # 2*hi grows from 2 to 6, bumped to the next threshold 10 -> hi 5.
        assert w.bounds(0)[1] == 5.0


class TestSubstitutionParity:
    @SET
    @given(st.integers(2, 4), st.data())
    def test_substitute_var(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 12)))
        v = data.draw(st.integers(0, n - 1))
        w = data.draw(st.integers(0, n - 1))
        coeff = data.draw(st.sampled_from([-1, 1]))
        off = float(data.draw(st.integers(-4, 4)))
        if w == v and coeff == -1:
            return  # negation substitution exercised separately
        expr = LinExpr({w: float(coeff)}, off)
        assert equal_state(o.substitute_linexpr(v, expr),
                           a.substitute_linexpr(v, expr))

    @SET
    @given(st.integers(2, 4), st.data())
    def test_substitute_const(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 12)))
        v = data.draw(st.integers(0, n - 1))
        c = float(data.draw(st.integers(-5, 8)))
        expr = LinExpr({}, c)
        assert equal_state(o.substitute_linexpr(v, expr),
                           a.substitute_linexpr(v, expr))

    @SET
    @given(st.integers(2, 4), st.data())
    def test_substitute_general_linexpr(self, n, data):
        o, a = make_pair(n, data.draw(dbm_entries(n, 12)))
        v = data.draw(st.integers(0, n - 1))
        coeffs = data.draw(st.dictionaries(st.integers(0, n - 1),
                                           st.sampled_from([-1.0, 1.0, 2.0]),
                                           min_size=1, max_size=2))
        expr = LinExpr(coeffs, float(data.draw(st.integers(-3, 3))))
        assert equal_state(o.substitute_linexpr(v, expr),
                           a.substitute_linexpr(v, expr))
