"""Fixpoint engine tests: convergence, widening, narrowing."""

import dataclasses

import pytest

from repro.analysis import FixpointEngine
from repro.core import INF
from repro.domains import get_domain
from repro.frontend import build_cfg, parse_program
from repro.frontend.cfg import CFG, CfgEdge


def solve(source, domain="octagon", **kwargs):
    proc = parse_program(source).procedures[0]
    cfg = build_cfg(proc)
    engine = FixpointEngine(**kwargs)
    return cfg, engine.analyze(cfg, get_domain(domain))


class TestStraightLine:
    def test_constant_propagates(self):
        cfg, fix = solve("x = 1; y = x + 2;")
        state = fix.at(cfg.exit)
        assert state.bounds(0) == (1.0, 1.0)
        assert state.bounds(1) == (3.0, 3.0)

    def test_branch_join(self):
        cfg, fix = solve("havoc(c); if (c > 0) { x = 1; } else { x = 5; }")
        state = fix.at(cfg.exit)
        assert state.bounds(1) == (1.0, 5.0)

    def test_unreachable_is_bottom(self):
        cfg, fix = solve("assume(false); x = 1;")
        assert fix.at(cfg.exit).is_bottom()

    @pytest.mark.parametrize("chain", [[(2, 3), (3, 4)], [(3, 2), (2, 4)]])
    def test_chain_the_entry_does_not_reach(self, chain):
        # 0 -> 1 is the program; the chain to 4 hangs off nothing, and
        # its transient nodes 2 and 3 must still be solved before they
        # are read, also when the lower-numbered one reads the other.
        edges = [CfgEdge(0, 1, None)] + [CfgEdge(a, b, None) for a, b in chain]
        cfg = CFG("t", 0, 1, 5, edges, set(), [], ["x"])
        fix = FixpointEngine().analyze(cfg, get_domain("octagon"))
        assert set(fix.states) == {0, 1, 4}
        assert not fix.at(1).is_bottom()
        assert all(fix.at(node).is_bottom() for node in (2, 3, 4))


class TestLoops:
    def test_simple_counter(self):
        cfg, fix = solve("i = 0; while (i < 10) { i = i + 1; }")
        state = fix.at(cfg.exit)
        assert state.bounds(0) == (10.0, 10.0)

    def test_widening_finds_invariant(self):
        """Unbounded loop: widening must blow the upper bound to inf
        while the narrowing pass keeps the exit bound precise."""
        cfg, fix = solve("i = 0; n = [0, 100]; while (i < n) { i = i + 1; }")
        state = fix.at(cfg.exit)
        lo, hi = state.bounds(0)
        assert lo == 0.0
        assert hi <= 100.0  # narrowing recovered the bound at exit

    def test_widening_counter_increments(self):
        cfg, fix = solve("i = 0; while (i < 10) { i = i + 1; }",
                         widening_delay=0)
        assert fix.widenings > 0
        assert fix.at(cfg.exit).bounds(0)[0] >= 0.0

    def test_nested_loop_converges(self):
        cfg, fix = solve("""
            i = 0;
            while (i < 5) {
              j = 0;
              while (j < 5) { j = j + 1; }
              i = i + 1;
            }
        """)
        state = fix.at(cfg.exit)
        assert state.bounds(0) == (5.0, 5.0)

    def test_relational_loop_invariant(self):
        """The octagon keeps y >= x through the paper's Fig. 2 loop."""
        cfg, fix = solve("""
            x = 1; y = x; m = [0, 20];
            while (x <= m) { x = x + 1; y = y + x; }
        """)
        from repro.core.constraints import LinExpr
        state = fix.at(cfg.exit)
        lo, _ = state.bound_linexpr(LinExpr({1: 1.0, 0: -1.0}))  # y - x
        assert lo >= 0.0

    def test_interval_domain_converges_too(self):
        cfg, fix = solve("i = 0; while (i < 10) { i = i + 1; }",
                         domain="interval")
        assert fix.at(cfg.exit).bounds(0) == (10.0, 10.0)

    def test_apron_domain_matches_octagon(self):
        src = "i = 0; s = 0; while (i < 8) { i = i + 1; s = s + i; }"
        cfg_o, fix_o = solve(src, domain="octagon")
        cfg_a, fix_a = solve(src, domain="apron")
        assert fix_o.at(cfg_o.exit).to_box() == fix_a.at(cfg_a.exit).to_box()


class TestKnobs:
    def test_thresholds_keep_bound(self):
        src = "i = 0; while (i < 1000) { i = i + 1; }"
        cfg, fix = solve(src, widening_delay=0, narrowing_steps=0,
                         widening_thresholds=(1001.0,))
        hi = fix.at(cfg.exit).bounds(0)[1]
        assert hi <= 1001.0

    def test_no_narrowing_loses_bound(self):
        src = "i = 0; while (i < 1000) { i = i + 1; }"
        cfg, fix = solve(src, widening_delay=0, narrowing_steps=0)
        head = next(iter(cfg.loop_heads))
        assert fix.at(head).bounds(0)[1] == INF

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            solve("i = 0; while (i < 10) { i = i + 1; }",
                  max_iterations=2)

    def test_entry_state_respected(self):
        proc = parse_program("y = x + 1;").procedures[0]
        cfg = build_cfg(proc)
        factory = get_domain("octagon")
        # Variable order is first-occurrence: y is 0, x is 1.
        pre = factory.from_box([(-INF, INF), (5.0, 6.0)])
        fix = FixpointEngine().analyze(cfg, factory, entry_state=pre)
        assert fix.at(cfg.exit).bounds(0) == (6.0, 7.0)


class TestLoopTreeContract:
    """The engine solves loops by the CFG's nesting tree, so a tree
    that misses a loop head must be rejected: solved anyway, the
    missing loop's back edge would count as bottom."""

    NESTED = ("i = 0; while (i < 5) { j = 0; while (j < i) { j = j + 1; } "
              "i = i + 1; }")

    def _cfg(self):
        return build_cfg(parse_program(self.NESTED).procedures[0])

    def test_empty_tree_rejected(self):
        cfg = dataclasses.replace(self._cfg(), loop_tree=[])
        with pytest.raises(ValueError, match="loop tree heads"):
            FixpointEngine().analyze(cfg, get_domain("octagon"))

    def test_missing_nested_loop_rejected(self):
        cfg = self._cfg()
        (outer,) = cfg.loop_tree
        pruned = dataclasses.replace(outer, subloops=[])
        cfg = dataclasses.replace(cfg, loop_tree=[pruned])
        with pytest.raises(ValueError, match="loop tree heads"):
            FixpointEngine().analyze(cfg, get_domain("octagon"))


class TestMemory:
    def test_states_are_not_cyclic_garbage(self):
        """Dropping a result frees every node's state at once: none of
        them waits in a reference cycle for the cyclic collector."""
        import gc

        from repro.core.octagon import Octagon

        source = """
            i = 0;
            while (i < 5) {
              j = 0;
              while (j < i) { j = j + 1; }
              i = i + 1;
            }
        """
        gc.collect()
        gc.disable()
        try:
            solve(source)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [o for o in gc.garbage if isinstance(o, Octagon)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []
