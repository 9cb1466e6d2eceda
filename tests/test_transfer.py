"""Tests for the analysis transfer functions (linearisation, interval
evaluation and condition refinement)."""

import pytest

from repro.core import INF, Octagon
from repro.core.constraints import LinExpr
from repro.domains import Interval
from repro.frontend.ast_nodes import (
    Assign, AssignInterval, Assume, BinOp, BoolLit, BoolOp, Cmp, Havoc,
    Neg, Not, Num, Var,
)
from repro.analysis.transfer import (
    apply_action,
    apply_assume,
    eval_interval,
    linearize,
)

VARS = {"x": 0, "y": 1, "z": 2}


class TestLinearize:
    def test_affine(self):
        e = BinOp("+", BinOp("*", Num(2.0), Var("x")), Num(3.0))
        lin = linearize(e, VARS)
        assert lin.coeffs == {0: 2.0} and lin.const == 3.0

    def test_subtraction_and_negation(self):
        e = BinOp("-", Var("x"), Neg(Var("y")))
        lin = linearize(e, VARS)
        assert lin.coeffs == {0: 1.0, 1: 1.0}

    def test_var_times_var_is_not_affine(self):
        e = BinOp("*", Var("x"), Var("y"))
        assert linearize(e, VARS) is None

    def test_const_times_expr(self):
        e = BinOp("*", BinOp("+", Var("x"), Num(1.0)), Num(3.0))
        lin = linearize(e, VARS)
        assert lin.coeffs == {0: 3.0} and lin.const == 3.0


class TestEvalInterval:
    BOUNDS = {0: (1.0, 2.0), 1: (-1.0, 3.0), 2: (-INF, INF)}

    def bounds(self, v):
        return self.BOUNDS[v]

    def test_product(self):
        e = BinOp("*", Var("x"), Var("y"))
        lo, hi = eval_interval(e, self.bounds, VARS)
        assert (lo, hi) == (-2.0, 6.0)

    def test_product_with_infinity(self):
        e = BinOp("*", Var("z"), Num(0.0))
        lo, hi = eval_interval(e, self.bounds, VARS)
        assert (lo, hi) == (0.0, 0.0)  # 0 * inf handled as 0

    def test_zero_times_infinite_numpy_bound_is_silent(self):
        """Octagon bounds are numpy scalars, where ``0 * inf`` warns."""
        import warnings

        import numpy as np

        bounds = {0: (np.float64(0.0), np.float64(2.0)),
                  1: (np.float64(-INF), np.float64(INF)),
                  2: (np.float64(-3.0), np.float64(0.0))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_interval(BinOp("*", Var("x"), Var("y")),
                                 bounds.__getitem__, VARS) == (-INF, INF)
            assert eval_interval(BinOp("*", Var("x"), Var("z")),
                                 bounds.__getitem__, VARS) == (-6.0, 0.0)
            assert eval_interval(BinOp("*", Num(0.0), Var("y")),
                                 bounds.__getitem__, VARS) == (0.0, 0.0)

    def test_negation(self):
        lo, hi = eval_interval(Neg(Var("x")), self.bounds, VARS)
        assert (lo, hi) == (-2.0, -1.0)


class TestApplyAction:
    def test_affine_assign_is_relational(self):
        state = Octagon.from_box([(0.0, 5.0), (0.0, 0.0), (0.0, 0.0)])
        out = apply_action(state, Assign("y", BinOp("+", Var("x"), Num(1.0))), VARS)
        lo, hi = out.bound_linexpr(LinExpr({1: 1.0, 0: -1.0}))
        assert (lo, hi) == (1.0, 1.0)

    def test_nonlinear_assign_falls_back_to_interval(self):
        state = Octagon.from_box([(1.0, 2.0), (3.0, 4.0), (0.0, 0.0)])
        out = apply_action(state, Assign("z", BinOp("*", Var("x"), Var("y"))), VARS)
        assert out.bounds(2) == (3.0, 8.0)

    def test_interval_assign_and_havoc(self):
        state = Octagon.from_box([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
        out = apply_action(state, AssignInterval("x", -1.0, 1.0), VARS)
        assert out.bounds(0) == (-1.0, 1.0)
        out = apply_action(out, Havoc("x"), VARS)
        assert out.bounds(0) == (-INF, INF)

    def test_none_action_is_identity(self):
        state = Octagon.top(3)
        assert apply_action(state, None, VARS) is state


class TestApplyAssume:
    def state(self):
        return Octagon.from_box([(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)])

    def test_comparison_operators(self):
        s = self.state()
        assert apply_assume(s, Cmp("<=", Var("x"), Num(4.0)), VARS).bounds(0) == (0.0, 4.0)
        assert apply_assume(s, Cmp("<", Var("x"), Num(4.0)), VARS).bounds(0) == (0.0, 3.0)
        assert apply_assume(s, Cmp(">=", Var("x"), Num(4.0)), VARS).bounds(0) == (4.0, 10.0)
        assert apply_assume(s, Cmp(">", Var("x"), Num(4.0)), VARS).bounds(0) == (5.0, 10.0)
        assert apply_assume(s, Cmp("==", Var("x"), Num(4.0)), VARS).bounds(0) == (4.0, 4.0)

    def test_real_mode_strict_is_nonstrict(self):
        s = self.state()
        out = apply_assume(s, Cmp("<", Var("x"), Num(4.0)), VARS, integer_mode=False)
        assert out.bounds(0) == (0.0, 4.0)

    def test_negation_flips(self):
        s = self.state()
        out = apply_assume(s, Not(Cmp("<=", Var("x"), Num(4.0))), VARS)
        assert out.bounds(0) == (5.0, 10.0)

    def test_conjunction(self):
        s = self.state()
        cond = BoolOp("&&", Cmp(">=", Var("x"), Num(2.0)),
                      Cmp("<=", Var("x"), Num(3.0)))
        assert apply_assume(s, cond, VARS).bounds(0) == (2.0, 3.0)

    def test_disjunction_joins(self):
        s = self.state()
        cond = BoolOp("||", Cmp("<=", Var("x"), Num(1.0)),
                      Cmp(">=", Var("x"), Num(9.0)))
        out = apply_assume(s, cond, VARS)
        assert out.bounds(0) == (0.0, 10.0)  # hull of the two sides

    def test_not_equal_on_boundary(self):
        s = Octagon.from_box([(0.0, 5.0)])
        out = apply_assume(s, Cmp("!=", Var("x"), Num(0.0)), {"x": 0})
        assert out.bounds(0) == (1.0, 5.0)

    def test_demorgan(self):
        s = self.state()
        cond = Not(BoolOp("||", Cmp("<", Var("x"), Num(2.0)),
                          Cmp(">", Var("x"), Num(7.0))))
        out = apply_assume(s, cond, VARS)
        assert out.bounds(0) == (2.0, 7.0)

    def test_bool_literals(self):
        s = self.state()
        assert apply_assume(s, BoolLit(True), VARS) is s
        assert apply_assume(s, BoolLit(False), VARS).is_bottom()

    def test_nonlinear_comparison_is_noop(self):
        s = self.state()
        cond = Cmp("<=", BinOp("*", Var("x"), Var("y")), Num(1.0))
        assert apply_assume(s, cond, VARS).is_eq(s)

    def test_works_on_interval_domain_too(self):
        s = Interval.from_box([(0.0, 10.0)])
        out = apply_assume(s, Cmp("<=", Var("x"), Num(4.0)), {"x": 0})
        assert out.bounds(0) == (0.0, 4.0)
