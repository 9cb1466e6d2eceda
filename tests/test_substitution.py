"""Tests for backward assignment (substitution) and backward analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import INF, LinExpr, Octagon, OctConstraint
from repro.frontend.ast_nodes import Cmp, Num, Var


class TestSubstitution:
    def test_substitute_const(self):
        # post: x in [0, 5].  pre of x := 3 is top (3 lands inside).
        post = Octagon.from_box([(0.0, 5.0)])
        pre = post.substitute_linexpr(0, LinExpr({}, 3.0))
        assert pre.is_top()

    def test_substitute_const_unreachable(self):
        post = Octagon.from_box([(0.0, 5.0)])
        pre = post.substitute_linexpr(0, LinExpr({}, 9.0))
        assert pre.is_bottom()

    def test_substitute_translation(self):
        # post: x in [0, 5].  pre of x := x + 2 is x in [-2, 3].
        post = Octagon.from_box([(0.0, 5.0)])
        pre = post.substitute_linexpr(0, LinExpr({0: 1.0}, 2.0))
        assert pre.bounds(0) == (-2.0, 3.0)

    def test_substitute_other_var(self):
        # post: x in [0, 5], pre of x := y constrains y, frees x.
        post = Octagon.from_box([(0.0, 5.0), (-INF, INF)])
        pre = post.substitute_linexpr(0, LinExpr({1: 1.0}, 0.0))
        assert pre.bounds(1) == (0.0, 5.0)
        assert pre.bounds(0) == (-INF, INF)

    def test_substitute_preserves_relations(self):
        # post: x = z.  pre of x := y + 1 is y + 1 = z, i.e. z - y = 1.
        post = Octagon.from_constraints(3, [OctConstraint.diff(0, 2, 0.0),
                                            OctConstraint.diff(2, 0, 0.0)])
        pre = post.substitute_linexpr(0, LinExpr({1: 1.0}, 1.0))
        lo, hi = pre.bound_linexpr(LinExpr({2: 1.0, 1: -1.0}))
        assert (lo, hi) == (1.0, 1.0)

    def test_substitute_on_bottom(self):
        assert Octagon.bottom(2).substitute_linexpr(0, LinExpr({}, 1.0)).is_bottom()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.integers(-3, 3),
           st.dictionaries(st.integers(0, 2), st.sampled_from([-1.0, 1.0, 2.0]),
                           max_size=2))
    def test_substitution_soundness(self, v, const, coeffs):
        """If running v := e from a point lands in post, the point must
        be in the computed precondition."""
        expr = LinExpr(dict(coeffs), float(const))
        post = Octagon.from_box([(-4.0, 4.0)] * 3)
        pre = post.substitute_linexpr(v, expr)
        rng = np.random.default_rng(5)
        for _ in range(25):
            pt = rng.uniform(-6, 6, 3)
            out = pt.copy()
            out[v] = expr.evaluate(pt)
            if post.contains_point(out):
                assert pre.contains_point(pt), (pt, out)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 2), st.sampled_from([-1, 1]),
           st.integers(-3, 3))
    def test_adjunction_with_assignment(self, v, w, coeff, off):
        """assign(pre) stays inside post when pre = substitute(post)."""
        post = Octagon.from_box([(-4.0, 4.0)] * 3)
        pre = post.substitute_linexpr(v, LinExpr({w: float(coeff)}, float(off)))
        if pre.is_bottom():
            return
        fwd = pre.assign_var(v, w, coeff=coeff, offset=float(off))
        assert fwd.is_leq(post)


class TestBackwardAnalysis:
    def test_straight_line_precondition(self):
        from repro.analysis.backward import necessary_precondition
        pre = necessary_precondition(
            "y = x + 1;", Cmp(">=", Var("y"), Num(10.0)))
        # y = x + 1 >= 10 requires x >= 9 (variable order: y, x).
        assert pre.bounds(1)[0] == 9.0

    def test_branch_join(self):
        from repro.analysis.backward import necessary_precondition
        src = "havoc(c); if (c > 0) { y = x + 1; } else { y = x - 1; }"
        pre = necessary_precondition(src, Cmp(">=", Var("y"), Num(10.0)))
        # Weakest branch needs x >= 9; the join gives x >= 9.
        x_index = 2  # variable order: c, y, x
        assert pre.bounds(x_index)[0] == 9.0

    def test_unreachable_condition_gives_bottom(self):
        from repro.analysis.backward import necessary_precondition
        pre = necessary_precondition(
            "x = [0, 5]; y = x;", Cmp(">", Var("y"), Num(100.0)))
        assert pre.is_bottom()

    def test_guard_meets(self):
        from repro.analysis.backward import necessary_precondition
        src = "assume(x <= 3); y = x;"
        pre = necessary_precondition(src, Cmp(">=", Var("y"), Num(2.0)))
        assert pre.bounds(0) == (2.0, 3.0)

    def test_loop_converges(self):
        from repro.analysis.backward import necessary_precondition
        src = "while (x < 10) { x = x + 1; }"
        pre = necessary_precondition(src, Cmp(">=", Var("x"), Num(10.0)))
        # Any starting x may eventually reach x >= 10.
        assert not pre.is_bottom()

    def test_havoc_erases_requirement(self):
        from repro.analysis.backward import necessary_precondition
        pre = necessary_precondition(
            "havoc(y);", Cmp(">=", Var("y"), Num(10.0)))
        assert pre.is_top()
