"""Tests for the Pentagon domain extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import INF
from repro.core.constraints import LinExpr, OctConstraint
from repro.domains import Pentagon, get_domain


@st.composite
def pentagons(draw, n=3):
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return Pentagon.top(n)
    if kind == 1:
        return Pentagon.bottom(n)
    p = Pentagon.top(n)
    for _ in range(draw(st.integers(1, 6))):
        v = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, n - 1))
        c = float(draw(st.integers(-6, 10)))
        if v == w or draw(st.booleans()):
            expr = (LinExpr({v: 1.0}, -c) if draw(st.booleans())
                    else LinExpr({v: -1.0}, c))
        else:
            expr = LinExpr({v: 1.0, w: -1.0}, 1.0)  # v < w
        p = p.assume_linear(expr)
    return p


SET = settings(max_examples=50, deadline=None)


class TestBasics:
    def test_top_bottom(self):
        assert Pentagon.top(2).is_top()
        assert Pentagon.bottom(2).is_bottom()

    def test_strict_relation_recorded(self):
        p = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        assert 1 in p.less[0]
        lo, hi = p.bound_linexpr(LinExpr({0: 1.0, 1: -1.0}))
        assert hi == -1.0

    def test_reduction_propagates_bounds(self):
        # x < y with y <= 5 gives x <= 4 (integer semantics).
        p = Pentagon.from_box([(-INF, INF), (-INF, 5.0)])
        p = p.assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        assert p.bounds(0)[1] == 4.0

    def test_relational_cycle_is_bottom(self):
        p = Pentagon.top(2)
        p = p.assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))  # x < y
        p = p.assume_linear(LinExpr({1: 1.0, 0: -1.0}, 1.0))  # y < x
        assert p.is_bottom()

    def test_infinite_coordinates_violate_no_relation(self):
        # Two values beyond float range both read as inf: their order is
        # lost, so x < y must not reject the point (as in Octagon).
        p = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        assert p.contains_point([INF, INF])
        assert not p.contains_point([INF, 3.0])
        assert not p.contains_point([4.0, 3.0])

    def test_interval_contradiction(self):
        p = Pentagon.from_box([(3.0, 4.0)]).assume_linear(LinExpr({0: 1.0}, 0.0))
        assert p.is_bottom()


class TestLattice:
    @SET
    @given(pentagons(), pentagons())
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert a.is_leq(j) and b.is_leq(j)

    @SET
    @given(pentagons(), pentagons())
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.is_leq(a) and m.is_leq(b)

    @SET
    @given(pentagons(), pentagons())
    def test_widening_covers_join(self, a, b):
        assert a.join(b).is_leq(a.widening(b))

    @SET
    @given(pentagons())
    def test_eq_reflexive(self, a):
        assert a.is_eq(a.copy())

    def test_join_keeps_common_relation(self):
        a = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        b = Pentagon.from_box([(0.0, 1.0), (5.0, 9.0)])  # x < y via bounds
        j = a.join(b)
        lo, hi = j.bound_linexpr(LinExpr({0: 1.0, 1: -1.0}))
        assert hi <= -1.0

    def test_join_drops_one_sided_relation(self):
        a = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        b = Pentagon.top(2)
        j = a.join(b)
        assert 1 not in j.less[0]


class TestTransfer:
    def test_assign_decrement_records_less(self):
        p = Pentagon.top(2).assign_linexpr(0, LinExpr({1: 1.0}, -1.0))
        assert 1 in p.less[0]  # x := y - 1 means x < y

    def test_assign_increment_records_greater(self):
        p = Pentagon.top(2).assign_linexpr(0, LinExpr({1: 1.0}, 2.0))
        assert 0 in p.less[1]  # x := y + 2 means y < x

    def test_forget_drops_relations(self):
        p = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        assert 1 in p.less[0]
        f = p.forget(1)
        assert 1 not in f.less[0]
        f2 = p.forget(0)
        assert not f2.less[0]

    def test_overwrite_drops_relations(self):
        p = Pentagon.top(2).assume_linear(LinExpr({0: 1.0, 1: -1.0}, 1.0))
        q = p.assign_const(0, 100.0)
        assert 1 not in q.less[0]

    def test_soundness_by_sampling(self):
        rng = np.random.default_rng(31)
        p = Pentagon.from_box([(-3.0, 3.0)] * 3)
        expr = LinExpr({0: 1.0, 2: -1.0}, 1.0)  # x < z
        refined = p.assume_linear(expr)
        for _ in range(40):
            pt = rng.uniform(-3, 3, 3)
            if expr.evaluate(pt) <= 0:
                assert refined.contains_point(pt)


class TestArrayBoundsUseCase:
    """The pentagon's home turf: i < n array-bound checks."""

    def test_analyzer_proves_scan(self):
        from repro.analysis.analyzer import analyze_source
        src = """
        n = [1, 1000];
        i = 0;
        while (i < n) {
          assert(i <= n - 1);
          i = i + 1;
        }
        """
        res = analyze_source(src, domain="pentagon")
        assert res.all_verified

    def test_cheaper_than_octagon_but_less_precise(self):
        from repro.analysis.analyzer import analyze_source
        # Needs x + y <= 3: pentagons have no sum constraints.
        src = "x = [0, 3]; y = 3 - x; assert(x + y <= 3);"
        assert analyze_source(src, domain="octagon").all_verified
        assert not analyze_source(src, domain="pentagon").all_verified
