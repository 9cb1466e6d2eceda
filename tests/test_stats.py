"""Tests for the instrumentation layer."""

import time
from types import SimpleNamespace

import pytest

from repro.core import Octagon, OctConstraint
from repro.core.constraints import LinExpr
from repro.core.stats import (
    OpCounter,
    StatsCollector,
    active_collector,
    bump,
    collecting,
    timed_op,
)
from repro.obs import collect, trace


class TestCollector:
    def test_nesting_restores_previous(self):
        assert active_collector() is None
        with collecting() as outer:
            assert active_collector() is outer
            with collecting() as inner:
                assert active_collector() is inner
            assert active_collector() is outer
        assert active_collector() is None

    def test_timed_op_accumulates(self):
        with collecting() as col:
            with timed_op("join"):
                time.sleep(0.001)
            with timed_op("join"):
                pass
        assert col.op_calls["join"] == 2
        assert col.op_seconds["join"] > 0

    def test_no_collector_is_noop(self):
        # No collector, tracing off: one shared object, nothing recorded.
        with timed_op("whatever"):
            pass
        null = timed_op("closure", n=3, kind="dense", components=1)
        assert null is timed_op("join")
        with null:
            pass

    def test_closure_stats(self):
        with collecting() as col:
            with timed_op("closure", n=5, kind="dense", components=1):
                pass
            with timed_op("closure", n=9, kind="decomposed", components=3):
                pass
            with timed_op("closure_inc", n=2, kind="incremental",
                          components=1):
                pass
        stats = col.closure_stats()
        assert stats == {"nmin": 5, "nmax": 9, "closures": 2, "incremental": 1}
        assert len(col.full_closures) == 2
        assert col.closures[1].components == 3
        # Closures are operator-table rows, timed by the same pair.
        assert col.op_calls == {"closure": 2, "closure_inc": 1}
        assert sum(rec.seconds for rec in col.full_closures) == (
            pytest.approx(col.op_seconds["closure"], rel=1e-9))

    def test_empty_stats(self):
        assert StatsCollector().closure_stats()["closures"] == 0


class TestCapture:
    def test_closure_inputs_captured(self):
        with collecting() as col:
            col.capture_closure_inputs = True
            o = Octagon.from_constraints(3, [OctConstraint.diff(0, 1, 2.0)])
            o.closure()
        assert len(col.closure_inputs) == 1
        mat, blocks = col.closure_inputs[0]
        assert mat.shape == (6, 6)
        assert blocks == [[0, 1]]

    def test_capture_off_by_default(self):
        with collecting() as col:
            Octagon.from_constraints(2, [OctConstraint.upper(0, 1.0)]).closure()
        assert col.closure_inputs == []

    def test_octagon_close_records_event(self):
        with collecting() as col:
            Octagon.from_constraints(2, [OctConstraint.upper(0, 1.0)]).closure()
        assert col.closure_stats()["closures"] == 1
        assert col.closures[0].n == 2


class TestSelfTime:
    """``timed_op`` nesting: inclusive vs. self time (the Fig 8 fix).

    Before the split, a nested operator's wall time was charged to both
    itself and its parent, so summing the per-operator column exceeded
    the measured total -- the decomposition did not decompose.
    """

    def test_nested_op_not_double_counted(self, monkeypatch):
        # A scripted clock: outer opens at 1 s, inner runs from 3 s to
        # 7 s, outer closes at 8 s.
        clock = iter([1.0, 3.0, 7.0, 8.0])
        monkeypatch.setattr(collect, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        with collecting() as col:
            with timed_op("outer"):
                with timed_op("inner"):
                    pass
        assert col.op_seconds == {"outer": 7.0, "inner": 4.0}
        assert col.op_self_seconds == {"outer": 3.0, "inner": 4.0}
        # Inclusive: outer covers inner.
        assert col.op_seconds["outer"] > col.op_seconds["inner"]
        # Exclusive: outer's self time does NOT include inner.
        assert col.op_self_seconds["outer"] < col.op_seconds["inner"]
        assert col.op_self_seconds["inner"] == pytest.approx(
            col.op_seconds["inner"])

    def test_decomposition_sums_to_total(self):
        """sum(self times) == elapsed of the outermost ops (Fig 8)."""
        with collecting() as col:
            with timed_op("a"):
                with timed_op("b"):
                    with timed_op("c"):
                        time.sleep(0.002)
                with timed_op("b"):
                    time.sleep(0.001)
        assert sum(col.op_self_seconds.values()) == pytest.approx(
            col.op_seconds["a"], rel=1e-6)
        assert col.octagon_seconds == pytest.approx(col.op_seconds["a"],
                                                    rel=1e-6)

    def test_sibling_ops_sum_exactly(self):
        with collecting() as col:
            with timed_op("parent"):
                for _ in range(3):
                    with timed_op("child"):
                        time.sleep(0.001)
        assert col.op_calls["child"] == 3
        assert (col.op_self_seconds["parent"] + col.op_seconds["child"]
                == pytest.approx(col.op_seconds["parent"], rel=1e-6))

    def test_closure_in_substitute_counted_once(self):
        """A full closure run inside ``substitute_linexpr`` (unclosed
        input, non-unit coefficient) is a child frame of ``substitute``:
        its time leaves the operator's self time, so octagon time equals
        the wall time of the outermost frame instead of exceeding it."""
        o = Octagon.from_constraints(3, [OctConstraint.diff(0, 1, 2.0),
                                         OctConstraint.upper(1, 5.0)])
        assert not o.closed
        with trace.session() as spans, collecting() as col:
            with timed_op("call"):
                o.substitute_linexpr(0, LinExpr({1: 2.0, 2: 1.0}, 1.0))
        assert col.closure_stats()["closures"] == 1
        assert col.octagon_seconds == pytest.approx(
            sum(col.op_self_seconds.values()), rel=1e-9)
        assert col.octagon_seconds == pytest.approx(
            col.op_seconds["call"], rel=1e-9)
        assert col.op_self_seconds["substitute"] < col.op_seconds["substitute"]
        (sub,) = [e for e in spans.events if e["name"] == "substitute"]
        (close,) = [e for e in spans.events if e["name"] == "closure"]
        assert sub["ts"] <= close["ts"]
        assert close["ts"] + close["dur"] <= sub["ts"] + sub["dur"]

    def test_leaf_op_self_equals_inclusive(self):
        with collecting() as col:
            with timed_op("leaf"):
                pass
        assert col.op_self_seconds["leaf"] == col.op_seconds["leaf"]


class TestNestedCollectors:
    """Counter semantics when ``collecting()`` blocks nest."""

    def test_inner_does_not_steal_outer_bumps(self):
        with collecting() as outer:
            bump("evt", 1)
            with collecting() as inner:
                bump("evt", 2)
            bump("evt", 4)
        assert inner.counters["evt"] == 2
        # The outer collector saw every event, including the inner span.
        assert outer.counters["evt"] == 7

    def test_merged_counters_include_inner_global_deltas(self):
        import numpy as np

        from repro.core.cow import CowMat

        def churn():
            mat = CowMat(np.zeros((4, 4)))
            clone = mat.clone()
            clone.written()  # shared, so this pays a materialisation

        with collecting() as outer:
            churn()
            with collecting() as inner:
                churn()
            churn()
        assert inner.merged_counters()["cow_clones"] == 1
        # Outer observes all three churns -- the inner collector did not
        # steal the middle one's global-source deltas.
        assert outer.merged_counters()["cow_clones"] == 3
        assert outer.merged_counters()["cow_materializations"] == 3

    def test_timings_go_to_innermost_only(self):
        with collecting() as outer:
            with collecting() as inner:
                with timed_op("join"):
                    pass
        assert "join" in inner.op_seconds
        assert outer.op_seconds == {}

    def test_counter_summary_enumerates_registry(self):
        """The summary is registry-driven: every declared counter is
        present (zero-filled) without a hand-maintained key list."""
        from repro.obs import metrics

        with collecting() as col:
            bump("cow_clones", 3)
        summary = col.counter_summary()
        assert set(metrics.REGISTRY.counter_names()) <= set(summary)
        assert summary["cow_clones"] == 3
        # Legacy names all survive the registry migration.
        for name in ("copies_avoided", "workspace_hits",
                     "closure_cache_hits", "plans_compiled", "plan_exec",
                     "constraints_batched", "closures_avoided",
                     "budget_checkpoints", "budget_interrupts",
                     "paranoid_checks", "integrity_failures",
                     "degradations", "faults_injected"):
            assert name in summary, name


class TestOpCounter:
    def test_tick_and_reset(self):
        counter = OpCounter()
        counter.tick()
        counter.tick(10)
        assert counter.mins == 11
        counter.reset()
        assert counter.mins == 0
