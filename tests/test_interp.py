"""Tests for the concrete interpreter."""

import math
import random

import pytest

from repro.frontend import parse_program
from repro.frontend.interp import (
    InfeasiblePath,
    Interpreter,
    StepBudgetExceeded,
    sample_runs,
)


def run_source(source, seed=0, **kwargs):
    proc = parse_program(source).procedures[0]
    return Interpreter(random.Random(seed), **kwargs).run(proc)


class TestBasics:
    def test_straight_line(self):
        result = run_source("x = 2; y = x * 3 + 1;")
        assert result.env == {"x": 2.0, "y": 7.0}
        assert result.ok

    def test_negation_and_division(self):
        result = run_source("x = -6; y = x / 2;")
        assert result.env["y"] == -3.0

    def test_branching(self):
        result = run_source("x = 5; if (x > 3) { y = 1; } else { y = 2; }")
        assert result.env["y"] == 1.0

    def test_loop(self):
        result = run_source("i = 0; s = 0; while (i < 5) { i = i + 1; s = s + i; }")
        assert result.env["s"] == 15.0

    def test_uninitialised_variable_gets_fresh_value(self):
        result = run_source("y = x + 0;", seed=3)
        assert "x" in result.env


class TestNondeterminism:
    def test_interval_assignment_in_range(self):
        for seed in range(10):
            result = run_source("x = [3, 7];", seed=seed)
            assert 3.0 <= result.env["x"] <= 7.0

    def test_havoc_varies_with_seed(self):
        values = {run_source("havoc(x);", seed=s).env["x"] for s in range(20)}
        assert len(values) > 1

    def test_deterministic_given_seed(self):
        a = run_source("x = [0, 100]; havoc(y);", seed=9).env
        b = run_source("x = [0, 100]; havoc(y);", seed=9).env
        assert a == b


class TestControl:
    def test_assume_failure_is_infeasible(self):
        with pytest.raises(InfeasiblePath):
            run_source("x = 1; assume(x > 5);")

    def test_assert_failure_recorded(self):
        result = run_source("x = 1; assert(x > 5);")
        assert not result.ok
        assert result.assertion_failures == ["x > 5"]

    def test_step_budget(self):
        with pytest.raises(StepBudgetExceeded):
            run_source("x = 0; while (x >= 0) { x = x + 1; }", max_steps=100)


class TestExactness:
    def test_integers_exact_beyond_float_precision(self):
        # In floats 2^64 + 1 == 2^64, so the branch would be skipped.
        result = run_source("b = 4294967296; b = b * b; "
                            "if (b < b + 1) { x = 1; } else { x = 0; }")
        assert result.env["x"] == 1

    def test_point_maps_values_beyond_float_range_to_inf(self):
        result = run_source("x = 2; i = 0; while (i < 11) { x = x * x; "
                            "i = i + 1; } y = -x;")
        assert result.point(["x", "y", "i"]) == [math.inf, -math.inf, 11.0]

    def test_value_budget(self):
        # 2^(2^20) would take a megabit per value: the run is incomplete.
        with pytest.raises(StepBudgetExceeded):
            run_source("x = 2; i = 0; while (i < 20) { x = x * x; i = i + 1; }")


class TestSampleRuns:
    def test_collects_completed_runs(self):
        proc = parse_program("x = [0, 3]; assume(x >= 1);").procedures[0]
        runs = sample_runs(proc, tries=40, seed=1)
        assert runs
        assert all(r.env["x"] >= 1.0 for r in runs)

    def test_skips_diverging_runs(self):
        proc = parse_program(
            "havoc(c); while (c == 1) { skip; }").procedures[0]
        runs = sample_runs(proc, tries=20, seed=2, max_steps=50)
        assert all(r.env["c"] != 1.0 for r in runs)
