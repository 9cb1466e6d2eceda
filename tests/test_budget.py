"""Tests for cooperative budgets and their engine integration."""

import time

import pytest

from repro.core import stats
from repro.core.budget import Budget, active_budget, charge_cells, governed
from repro.errors import AnalysisInterrupted, BudgetExceeded, ReproError
from repro.analysis.analyzer import Analyzer
from repro.analysis.fixpoint import FixpointEngine
from repro.domains.domain import get_domain
from repro.frontend.cfg import build_cfg
from repro.frontend.parser import parse_program

LOOP_SOURCE = """
proc count {
  x = 0;
  while (x < 1000) { x = x + 1; }
  assert (x >= 1000);
}
"""


def _loop_cfg():
    return build_cfg(parse_program(LOOP_SOURCE).procedures[0])


class TestBudget:
    def test_unbounded_never_raises(self):
        b = Budget()
        assert not b.bounded
        for _ in range(1000):
            b.checkpoint()
            b.charge_cells(10**9)

    def test_iteration_cap(self):
        b = Budget(max_iterations=3)
        for _ in range(3):
            b.checkpoint()
        with pytest.raises(BudgetExceeded) as exc_info:
            b.checkpoint()
        assert exc_info.value.reason == "iterations"

    def test_cell_cap(self):
        b = Budget(max_cells=100)
        b.charge_cells(60)
        with pytest.raises(BudgetExceeded) as exc_info:
            b.charge_cells(60)
        assert exc_info.value.reason == "cells"
        assert exc_info.value.spent == 120

    def test_deadline(self):
        b = Budget(time_limit=0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded) as exc_info:
            b.checkpoint()
        assert exc_info.value.reason == "deadline"

    def test_budget_exceeded_is_runtime_error(self):
        # Callers written against the old bare raises keep working.
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(AnalysisInterrupted, RuntimeError)
        assert issubclass(BudgetExceeded, ReproError)

    def test_checkpoints_counted(self):
        with stats.collecting() as collector:
            b = Budget(max_iterations=100)
            for _ in range(5):
                b.checkpoint()
        assert collector.merged_counters()["budget_checkpoints"] >= 5


class TestAmbientBudget:
    def test_governed_scope_installs_and_restores(self):
        assert active_budget() is None
        b = Budget(max_cells=50)
        with governed(b):
            assert active_budget() is b
        assert active_budget() is None

    def test_governed_none_is_noop(self):
        with governed(None):
            assert active_budget() is None
            charge_cells(10**12)  # nothing to charge: must not raise

    def test_ambient_charge_reaches_budget(self):
        b = Budget(max_cells=10)
        with governed(b):
            with pytest.raises(BudgetExceeded):
                charge_cells(11)

    def test_nested_scopes_restore_outer(self):
        outer, inner = Budget(), Budget()
        with governed(outer):
            with governed(inner):
                assert active_budget() is inner
            assert active_budget() is outer


class TestEngineIntegration:
    def test_interrupt_carries_partial_states(self):
        engine = FixpointEngine()
        cfg = _loop_cfg()
        with pytest.raises(AnalysisInterrupted) as exc_info:
            engine.analyze(cfg, get_domain("octagon"),
                           budget=Budget(max_iterations=4))
        exc = exc_info.value
        assert exc.reason == "iterations"
        assert exc.iterations > 0
        assert isinstance(exc.partial_states, dict)
        assert set(exc.partial_states) == set(range(cfg.n_nodes))

    def test_partial_states_replay_each_missing_node_once(self):
        # Every inner node of a straight line keeps no state; filling
        # them into the partial map must cost one assignment each, not
        # one walk back to the entry each.
        length = 300
        source = "".join(f"x = x + {i};\n" for i in range(length))
        cfg = build_cfg(parse_program(source).procedures[0])
        with stats.collecting() as collector:
            with pytest.raises(AnalysisInterrupted) as exc_info:
                FixpointEngine().analyze(
                    cfg, get_domain("octagon"),
                    budget=Budget(max_iterations=length - 10))
        assert set(exc_info.value.partial_states) == set(range(cfg.n_nodes))
        assert collector.op_calls["assign"] <= 2 * length

    def test_max_iterations_backstop_still_runtime_error(self):
        engine = FixpointEngine(max_iterations=2)
        with pytest.raises(RuntimeError):
            engine.analyze(_loop_cfg(), get_domain("octagon"))

    def test_cell_budget_interrupts_octagon_closures(self):
        engine = FixpointEngine()
        with pytest.raises(AnalysisInterrupted) as exc_info:
            engine.analyze(_loop_cfg(), get_domain("octagon"),
                           budget=Budget(max_cells=5))
        assert exc_info.value.reason == "cells"

    def test_generous_budget_changes_nothing(self):
        engine = FixpointEngine()
        cfg = _loop_cfg()
        free = engine.analyze(cfg, get_domain("octagon"))
        governed_run = engine.analyze(cfg, get_domain("octagon"),
                                      budget=Budget(time_limit=3600.0,
                                                    max_iterations=10**9,
                                                    max_cells=10**15))
        for node in range(cfg.n_nodes):
            a, b = free.at(node), governed_run.at(node)
            assert a.is_leq(b) and b.is_leq(a)

    def test_analyzer_degrade_false_propagates(self):
        analyzer = Analyzer(iteration_budget=2, degrade=False)
        with pytest.raises(AnalysisInterrupted):
            analyzer.analyze(LOOP_SOURCE)

    def test_backward_budget(self):
        from repro.analysis.backward import BackwardEngine

        cfg = _loop_cfg()
        with pytest.raises(AnalysisInterrupted):
            BackwardEngine().analyze(cfg, get_domain("octagon"), cfg.exit,
                                     budget=Budget(max_iterations=1))
