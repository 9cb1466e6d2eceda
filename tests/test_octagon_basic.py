"""Unit tests for the Octagon element: constructors, kinds, queries."""

import numpy as np
import pytest

from repro.core import INF, DbmKind, Octagon, OctConstraint, SwitchPolicy
from repro.core.constraints import LinExpr


def entails(o, cons):
    """Does every point of ``o`` satisfy ``cons``?"""
    return o.is_leq(o.meet_constraint(cons))


class TestConstructors:
    def test_top(self):
        o = Octagon.top(4)
        assert o.is_top()
        assert not o.is_bottom()
        assert o.kind == DbmKind.TOP
        assert o.to_box() == [(-INF, INF)] * 4

    def test_bottom(self):
        o = Octagon.bottom(3)
        assert o.is_bottom()
        assert not o.is_top()
        assert o.to_box() == [(INF, -INF)] * 3

    def test_from_box(self):
        o = Octagon.from_box([(0.0, 2.0), (-INF, 5.0), (-INF, INF)])
        assert o.bounds(0) == (0.0, 2.0)
        assert o.bounds(1) == (-INF, 5.0)
        assert o.bounds(2) == (-INF, INF)

    def test_from_box_empty(self):
        assert Octagon.from_box([(2.0, 1.0)]).is_bottom()

    def test_from_constraints(self):
        o = Octagon.from_constraints(2, [OctConstraint.sum(0, 1, 5.0),
                                         OctConstraint.upper(0, 1.0)])
        lo, hi = o.bound_linexpr(LinExpr({0: 1.0, 1: 1.0}))
        assert hi == 5.0

    def test_from_matrix_roundtrip(self):
        o = Octagon.from_box([(1.0, 2.0), (0.0, 4.0)])
        p = Octagon.from_matrix(o.mat)
        assert p.is_eq(o)

    def test_from_matrix_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Octagon.from_matrix(np.zeros((3, 3)))

    def test_zero_dimensions(self):
        o = Octagon.top(0)
        assert not o.is_bottom()
        assert o.to_box() == []
        assert o.join(Octagon.top(0)).n == 0


class TestKinds:
    def test_top_kind(self):
        assert Octagon.top(5).kind == DbmKind.TOP

    def test_decomposed_kind(self):
        o = Octagon.top(6).meet_constraint(OctConstraint.diff(0, 1, 3.0))
        assert o.kind == DbmKind.DECOMPOSED
        assert o.partition.support == {0, 1}

    def test_dense_kind_when_saturated(self):
        n = 3
        o = Octagon.top(n)
        for i in range(n):
            for j in range(i + 1, n):
                o = o.meet_constraint(OctConstraint.sum(i, j, 10.0))
                o = o.meet_constraint(OctConstraint.diff(i, j, 10.0))
                o = o.meet_constraint(OctConstraint.diff(j, i, 10.0))
                o = o.meet_constraint(OctConstraint.neg_sum(i, j, 10.0))
            o = o.meet_constraint(OctConstraint.upper(i, 5.0))
            o = o.meet_constraint(OctConstraint.lower(i, -5.0))
        o = o.closure()
        assert o.kind == DbmKind.DENSE

    def test_policy_disables_decomposition(self):
        policy = SwitchPolicy(decompose=False)
        o = Octagon.top(6, policy=policy).meet_constraint(
            OctConstraint.diff(0, 1, 3.0))
        assert o.kind == DbmKind.DENSE

    def test_sparsity_measure(self):
        o = Octagon.top(5)
        assert 0.8 < o.sparsity <= 1.0


class TestClosureCaching:
    def test_closure_does_not_mutate_original(self):
        o = Octagon.from_constraints(3, [OctConstraint.diff(0, 1, 1.0),
                                         OctConstraint.diff(1, 2, 1.0)])
        before = o.mat.copy()
        c = o.closure()
        assert np.array_equal(np.isinf(o.mat), np.isinf(before))
        # The closure derived the transitive bound; the original lacks it.
        assert c is not o
        assert c.closed

    def test_closure_cached(self):
        o = Octagon.from_constraints(2, [OctConstraint.diff(0, 1, 1.0)])
        assert o.closure() is o.closure()

    def test_closed_octagon_returns_self(self):
        o = Octagon.top(2)
        assert o.closure() is o

    def test_bottom_discovered_by_closure_marks_original(self):
        o = Octagon.from_constraints(1, [OctConstraint.upper(0, 0.0),
                                         OctConstraint.lower(0, 1.0)])
        assert o.is_bottom()
        assert o._bottom


class TestQueries:
    def test_bounds_and_box(self):
        o = Octagon.from_constraints(2, [OctConstraint.upper(0, 3.0),
                                         OctConstraint.lower(0, -1.0)])
        assert o.bounds(0) == (-1.0, 3.0)
        assert o.bounds(1) == (-INF, INF)

    def test_relational_bound_linexpr(self):
        o = Octagon.from_constraints(2, [OctConstraint.diff(0, 1, 2.0),
                                         OctConstraint.diff(1, 0, -1.0)])
        lo, hi = o.bound_linexpr(LinExpr({0: 1.0, 1: -1.0}))
        # 1 <= x - y <= 2 even though neither variable is bounded.
        assert (lo, hi) == (1.0, 2.0)

    def test_to_constraints_roundtrip(self):
        o = Octagon.from_box([(0.0, 1.0), (2.0, 3.0)])
        cons = o.to_constraints()
        p = Octagon.from_constraints(2, cons)
        assert p.is_eq(o)

    def test_contains_point(self):
        o = Octagon.from_box([(0.0, 2.0), (0.0, 2.0)]).meet_constraint(
            OctConstraint.sum(0, 1, 3.0))
        assert o.contains_point([1.0, 1.0])
        assert not o.contains_point([2.0, 2.0])  # violates x + y <= 3
        assert not Octagon.bottom(2).contains_point([0.0, 0.0])

    def test_sat_constraint(self):
        o = Octagon.from_box([(0.0, 1.0)])
        assert entails(o, OctConstraint.upper(0, 1.0))
        assert entails(o, OctConstraint.upper(0, 5.0))
        assert not entails(o, OctConstraint.upper(0, 0.5))

    def test_repr(self):
        assert "bottom" in repr(Octagon.bottom(1))
        assert "kind=top" in repr(Octagon.top(1))


class TestPretty:
    def test_pretty_top_bottom(self):
        assert Octagon.top(2).pretty() == "true"
        assert Octagon.bottom(2).pretty() == "false"

    def test_pretty_with_names(self):
        o = Octagon.from_constraints(2, [OctConstraint.diff(0, 1, 3.0)])
        text = o.pretty(names=["x", "y"])
        assert "+x -y <= 3" in text

    def test_pretty_unary(self):
        o = Octagon.from_constraints(1, [OctConstraint.upper(0, 2.0)])
        assert "+v0 <= 2" in o.pretty()


class TestDimensions:
    def test_add_dimensions(self):
        o = Octagon.from_box([(1.0, 2.0)])
        p = o.add_dimensions(2)
        assert p.n == 3
        assert p.bounds(0) == (1.0, 2.0)
        assert p.bounds(2) == (-INF, INF)

    def test_remove_dimensions(self):
        o = Octagon.from_box([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
        p = o.remove_dimensions([1])
        assert p.n == 2
        assert p.bounds(0) == (1.0, 2.0)
        assert p.bounds(1) == (5.0, 6.0)

    def test_remove_keeps_relations_of_kept_vars(self):
        o = Octagon.from_constraints(3, [OctConstraint.diff(0, 2, 1.0)])
        p = o.remove_dimensions([1])
        lo, hi = p.bound_linexpr(LinExpr({0: 1.0, 1: -1.0}))
        assert hi == 1.0

    def test_permute(self):
        o = Octagon.from_box([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        p = o.permute([2, 0, 1])
        assert p.bounds(0) == (3.0, 3.0)
        assert p.bounds(1) == (1.0, 1.0)
        assert p.bounds(2) == (2.0, 2.0)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Octagon.top(2).permute([0, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Octagon.top(2).join(Octagon.top(3))
