"""Semantic tests of the Octagon transfer functions against concrete
execution: each abstract operation must over-approximate the concrete
one on sampled points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import INF, Octagon, OctConstraint
from repro.core.constraints import LinExpr


def box(*bounds):
    return Octagon.from_box(list(bounds))


def entails(o, cons):
    """Does every point of ``o`` satisfy ``cons``?"""
    return o.is_leq(o.meet_constraint(cons))


class TestForget:
    def test_forget_drops_var(self):
        o = box((1.0, 2.0), (3.0, 4.0)).forget(0)
        assert o.bounds(0) == (-INF, INF)
        assert o.bounds(1) == (3.0, 4.0)

    def test_forget_keeps_derived_relations(self):
        # x = y and y = z: forgetting y must keep x = z.
        o = Octagon.from_constraints(3, [
            OctConstraint.diff(0, 1, 0.0), OctConstraint.diff(1, 0, 0.0),
            OctConstraint.diff(1, 2, 0.0), OctConstraint.diff(2, 1, 0.0)])
        f = o.forget(1)
        lo, hi = f.bound_linexpr(LinExpr({0: 1.0, 2: -1.0}))
        assert (lo, hi) == (0.0, 0.0)

    def test_forget_bottom(self):
        assert Octagon.bottom(2).forget(0).is_bottom()


class TestAssignments:
    def test_assign_const(self):
        o = Octagon.top(2).assign_const(0, 5.0)
        assert o.bounds(0) == (5.0, 5.0)

    def test_assign_const_overwrites(self):
        o = box((0.0, 1.0), (0.0, 1.0)).assign_const(0, 9.0)
        assert o.bounds(0) == (9.0, 9.0)
        assert o.bounds(1) == (0.0, 1.0)

    def test_assign_interval(self):
        o = Octagon.top(1).assign_interval(0, -2.0, 7.0)
        assert o.bounds(0) == (-2.0, 7.0)

    def test_assign_interval_empty(self):
        assert Octagon.top(1).assign_interval(0, 3.0, 2.0).is_bottom()

    def test_translate_is_exact(self):
        o = box((0.0, 2.0), (1.0, 1.0)).assign_var(0, 0, coeff=1, offset=3.0)
        assert o.bounds(0) == (3.0, 5.0)
        assert o.bounds(1) == (1.0, 1.0)

    def test_translate_preserves_relations(self):
        o = Octagon.from_constraints(2, [OctConstraint.diff(0, 1, 0.0),
                                         OctConstraint.diff(1, 0, 0.0)])
        o = o.assign_var(0, 0, coeff=1, offset=2.0)  # x := x + 2
        lo, hi = o.bound_linexpr(LinExpr({0: 1.0, 1: -1.0}))
        assert (lo, hi) == (2.0, 2.0)

    def test_negate(self):
        o = box((1.0, 3.0)).assign_var(0, 0, coeff=-1)
        assert o.bounds(0) == (-3.0, -1.0)

    def test_negate_with_offset(self):
        o = box((1.0, 3.0)).assign_var(0, 0, coeff=-1, offset=10.0)
        assert o.bounds(0) == (7.0, 9.0)

    def test_assign_var_relational(self):
        o = box((0.0, 4.0), (0.0, 0.0)).assign_var(1, 0, coeff=1, offset=1.0)
        # y := x + 1 establishes y - x = 1.
        lo, hi = o.bound_linexpr(LinExpr({1: 1.0, 0: -1.0}))
        assert (lo, hi) == (1.0, 1.0)
        assert o.bounds(1) == (1.0, 5.0)

    def test_assign_neg_var(self):
        o = box((1.0, 2.0), (0.0, 0.0)).assign_var(1, 0, coeff=-1, offset=0.0)
        assert o.bounds(1) == (-2.0, -1.0)

    def test_assign_linexpr_general(self):
        o = box((0.0, 1.0), (0.0, 2.0), (0.0, 0.0))
        o = o.assign_linexpr(2, LinExpr({0: 1.0, 1: 1.0}, 1.0))  # z := x+y+1
        assert o.bounds(2) == (1.0, 4.0)
        # Relational consequence: z - x = y + 1 in [1, 3].
        lo, hi = o.bound_linexpr(LinExpr({2: 1.0, 0: -1.0}))
        assert (lo, hi) == (1.0, 3.0)

    def test_assign_linexpr_scaled(self):
        o = box((1.0, 2.0), (0.0, 0.0)).assign_linexpr(1, LinExpr({0: 3.0}))
        assert o.bounds(1) == (3.0, 6.0)

    def test_assign_self_reference(self):
        # x := x + y with both bounded.
        o = box((0.0, 1.0), (2.0, 3.0)).assign_linexpr(
            0, LinExpr({0: 1.0, 1: 1.0}))
        assert o.bounds(0) == (2.0, 4.0)

    def test_assign_on_bottom(self):
        assert Octagon.bottom(2).assign_const(0, 1.0).is_bottom()
        assert Octagon.bottom(2).assign_var(0, 1).is_bottom()

    def test_assign_var_rejects_bad_coeff(self):
        with pytest.raises(ValueError):
            Octagon.top(2).assign_var(0, 1, coeff=2)


class TestAssume:
    def test_assume_unary(self):
        o = Octagon.top(1).assume_linear(LinExpr({0: 1.0}, -5.0))  # x - 5 <= 0
        assert o.bounds(0) == (-INF, 5.0)

    def test_assume_binary_relational(self):
        o = box((0.0, 10.0), (0.0, 10.0)).assume_linear(
            LinExpr({0: 1.0, 1: -1.0}))  # x <= y
        assert entails(o, OctConstraint.diff(0, 1, 0.0))

    def test_assume_contradiction(self):
        o = box((3.0, 4.0)).assume_linear(LinExpr({0: 1.0}, 0.0))  # x <= 0
        assert o.is_bottom()

    def test_assume_constant(self):
        assert not Octagon.top(1).assume_linear(LinExpr({}, -1.0)).is_bottom()
        assert Octagon.top(1).assume_linear(LinExpr({}, 1.0)).is_bottom()

    def test_assume_nonunit_coefficient(self):
        # 2x - 4 <= 0 is not octagonal; the interval fallback still
        # bounds x when the residual is finite... here 2x <= 4 needs a
        # direct division; we accept the sound no-op for the unary term
        # but meet at least stays sound.
        o = box((0.0, 10.0)).assume_linear(LinExpr({0: 2.0}, -4.0))
        lo, hi = o.bounds(0)
        assert lo == 0.0 and hi <= 10.0


class TestSoundnessBySampling:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2),
           st.sampled_from([-1, 1]))
    def test_assign_var_soundness(self, off, v, w, coeff):
        o = Octagon.from_box([(-3.0, 3.0)] * 3)
        res = o.assign_var(v, w, coeff=coeff, offset=float(off))
        rng = np.random.default_rng(1)
        for _ in range(25):
            pt = rng.uniform(-3, 3, 3)
            out = pt.copy()
            out[v] = coeff * pt[w] + off
            assert res.contains_point(out)

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=3),
           st.integers(-3, 3), st.integers(0, 2))
    def test_assign_linexpr_soundness(self, coeffs, const, v):
        expr = LinExpr({k: float(c) for k, c in coeffs.items() if c}, float(const))
        o = Octagon.from_box([(-2.0, 2.0)] * 3)
        res = o.assign_linexpr(v, expr)
        rng = np.random.default_rng(2)
        for _ in range(20):
            pt = rng.uniform(-2, 2, 3)
            out = pt.copy()
            out[v] = expr.evaluate(pt)
            assert res.contains_point(out)

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=3),
           st.integers(-4, 4))
    def test_assume_soundness(self, coeffs, const):
        expr = LinExpr({k: float(c) for k, c in coeffs.items() if c}, float(const))
        o = Octagon.from_box([(-3.0, 3.0)] * 3)
        res = o.assume_linear(expr)
        rng = np.random.default_rng(3)
        for _ in range(25):
            pt = rng.uniform(-3, 3, 3)
            if expr.evaluate(pt) <= 0:
                assert res.contains_point(pt), (
                    f"{pt} satisfies the test but was excluded")
