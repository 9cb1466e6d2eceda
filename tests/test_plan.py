"""Compiled transfer plans: unit behaviour and the determinism contract.

The plan layer promises more than semantic equivalence: the compiled
executor must be **matrix-identical** to the interpreter (widening
consumes raw representations, so anything weaker could change iteration
counts).  The tests enforce the strongest observable consequences:
identical verdicts, identical exit boxes, identical iteration /
widening / narrowing counts -- on hand-written programs, on random
(hypothesis) programs, and on the full 17-benchmark workload suite.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Analyzer, necessary_precondition
from repro.analysis.plan import compile_action, compile_cfg, counters
from repro.analysis.transfer import apply_action
from repro.domains.domain import get_domain
from repro.frontend.cfg import build_cfg
from repro.frontend.parser import parse_program
from repro.workloads.suite import BENCHMARKS

from test_fuzz_soundness import programs

DOMAINS = ["octagon", "apron", "interval", "zone", "pentagon"]

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large,
                                       HealthCheck.filter_too_much])


def _cfg_of(source):
    return build_cfg(parse_program(source).procedures[0])


def _analyze_pair(source, domain, **kwargs):
    on = Analyzer(domain=domain, compile_transfer=True, **kwargs).analyze(source)
    off = Analyzer(domain=domain, compile_transfer=False, **kwargs).analyze(source)
    return on, off


def _assert_identical(on, off):
    assert [c.verified for c in on.checks] == [c.verified for c in off.checks]
    for pa, pb in zip(on.procedures, off.procedures):
        assert pa.fixpoint.iterations == pb.fixpoint.iterations
        assert pa.fixpoint.widenings == pb.fixpoint.widenings
        assert pa.fixpoint.narrowings == pb.fixpoint.narrowings
        for node in range(pa.cfg.n_nodes):
            sa, sb = pa.fixpoint.at(node), pb.fixpoint.at(node)
            assert sa.is_bottom() == sb.is_bottom()
            if hasattr(sa, "mat"):
                # The raw representation, not the closure: this is what
                # widening sees on the next analysis of the same node.
                assert np.array_equal(sa.mat, sb.mat), f"node {node}"
            if not sa.is_bottom() and hasattr(sa, "to_box"):
                assert sa.to_box() == sb.to_box()


# ----------------------------------------------------------------------
# unit behaviour of compile_action
# ----------------------------------------------------------------------
class TestCompileAction:
    def _edge_plans(self, source):
        cfg = _cfg_of(source)
        return cfg, [(e, compile_action(e.action, cfg.var_index))
                     for e in cfg.edges]

    def test_identity_actions_compile_to_none(self):
        cfg, plans = self._edge_plans("x = 1; assume(true); while (x < 3) { x = x + 1; }")
        none_edges = [e for e, p in plans if p is None]
        assert none_edges, "no-op edges should compile away"
        for e, p in plans:
            if e.action is None:
                assert p is None

    def test_trivially_true_assume_is_identity(self):
        cfg = _cfg_of("x = 1;")
        from repro.frontend.ast_nodes import Assume, BoolLit
        assert compile_action(Assume(BoolLit(True)), cfg.var_index) is None

    def test_trivially_false_assume_is_bottom(self):
        cfg = _cfg_of("x = 1;")
        from repro.frontend.ast_nodes import Assume, BoolLit
        plan = compile_action(Assume(BoolLit(False)), cfg.var_index)
        top = get_domain("octagon").top(len(cfg.variables))
        assert plan(top).is_bottom()

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_every_edge_matches_interpreter(self, domain):
        source = ("x = 0; y = [0, 8]; havoc(z); "
                  "assume(x >= 0 && x <= 10 && y != 3); "
                  "z = x + y - 2; z = z * y; "
                  "if (z > 5 || y < 1) { x = -z + 1; }")
        cfg, plans = self._edge_plans(source)
        factory = get_domain(domain)
        state = factory.top(len(cfg.variables))
        for e, p in plans:
            expected = apply_action(state, e.action, cfg.var_index)
            got = state if p is None else p(state)
            assert expected.is_bottom() == got.is_bottom()
            if hasattr(expected, "mat"):
                assert np.array_equal(expected.mat, got.mat)
            elif hasattr(expected, "to_box") and not expected.is_bottom():
                assert expected.to_box() == got.to_box()

    def test_conjunctive_chain_batches_constraints(self):
        from repro.frontend.ast_nodes import Assume, BoolOp

        cfg = _cfg_of("havoc(x); assume(x >= 0 && x <= 10);")
        (edge,) = [e for e in cfg.edges
                   if isinstance(e.action, Assume)
                   and isinstance(e.action.cond, BoolOp)]
        plan = compile_action(edge.action, cfg.var_index)
        top = get_domain("octagon").top(len(cfg.variables))
        before = counters()
        out = plan(top)
        after = counters()
        # Both unary tests on x fused into one meet_constraints call:
        # one incremental closure instead of two.
        assert after["constraints_batched"] - before["constraints_batched"] == 2
        assert after["closures_avoided"] - before["closures_avoided"] == 1
        interp = apply_action(top, edge.action, cfg.var_index)
        assert np.array_equal(out.mat, interp.mat)

    def test_compile_cfg_counts_plans(self):
        cfg = _cfg_of("x = 0; while (x < 4) { x = x + 1; }")
        before = counters()["plans_compiled"]
        compiled = compile_cfg(cfg)
        assert compiled.n_plans > 0
        assert counters()["plans_compiled"] - before == compiled.n_plans
        # Adjacency mirrors the CFG's own predecessor lists.
        for node, edges in cfg.predecessors.items():
            assert [src for src, _ in compiled.pairs[node]] == \
                [e.src for e in edges]


# ----------------------------------------------------------------------
# engine-level determinism (forward and backward engines)
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    SOURCES = [
        "x = 0; while (x < 100) { x = x + 1; } assert(x == 100);",
        ("i = 0; j = 10; while (i < j) { i = i + 1; j = j - 1; } "
         "assert(i >= j);"),
        ("x = [0, 5]; y = 0; while (x > 0) { x = x - 1; y = y + 2; } "
         "assert(y >= 0);"),
        ("a = 1; if (a == 1 || a == 2) { b = a * a; } else { b = 0; } "
         "assert(b <= 4);"),
        "x = 3; assume(x != 3); assert(false);",
    ]

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("source", SOURCES)
    def test_programs_identical(self, domain, source):
        _assert_identical(*_analyze_pair(source, domain))

    def test_widening_thresholds_still_apply(self):
        source = "x = 0; while (x < 37) { x = x + 1; }"
        kw = dict(widening_delay=1, widening_thresholds=(37.0,))
        _assert_identical(*_analyze_pair(source, "octagon", **kw))

    def test_backward_identical(self):
        source = ("havoc(x); y = 0; while (x > 0) { x = x - 1; y = y + 1; } "
                  "assume(y <= 5);")
        pre_on = necessary_precondition(source, compile_transfer=True)
        pre_off = necessary_precondition(source, compile_transfer=False)
        assert pre_on.is_bottom() == pre_off.is_bottom()
        assert np.array_equal(pre_on.mat, pre_off.mat)


# ----------------------------------------------------------------------
# property: random programs, identical everything
# ----------------------------------------------------------------------
@pytest.mark.parametrize("domain", DOMAINS)
class TestFuzzDeterminism:
    @FUZZ
    @given(source=programs())
    def test_compiled_equals_interpreted(self, domain, source):
        _assert_identical(*_analyze_pair(source, domain))


# ----------------------------------------------------------------------
# the full workload suite
# ----------------------------------------------------------------------
class TestSuiteDeterminism:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_benchmark_identical(self, bench):
        source = bench.source("small")
        _assert_identical(*_analyze_pair(source, "octagon"))
