"""Control-flow graph construction tests."""

import pytest

from repro.frontend import Assume, build_cfg, parse_program
from repro.frontend.ast_nodes import Assign
from repro.frontend.cfg import CFG, CfgEdge


def cfg_of(source):
    return build_cfg(parse_program(source).procedures[0])


class TestStraightLine:
    def test_chain(self):
        cfg = cfg_of("x = 1; y = 2; z = 3;")
        assert cfg.n_nodes == 4
        assert len(cfg.edges) == 3
        assert cfg.entry == 0
        assert not cfg.loop_heads

    def test_skip_adds_nothing(self):
        cfg = cfg_of("skip; skip;")
        assert cfg.n_nodes == 1
        assert cfg.entry == cfg.exit


class TestBranches:
    def test_if_has_two_guard_edges(self):
        cfg = cfg_of("if (x < 1) { y = 1; } else { y = 2; }")
        guards = [e for e in cfg.edges if isinstance(e.action, Assume)]
        assert len(guards) == 2
        assert all(e.src == cfg.entry for e in guards)
        # Both arms merge at the exit.
        merge_preds = cfg.predecessors[cfg.exit]
        assert len(merge_preds) == 2

    def test_if_without_else(self):
        cfg = cfg_of("if (x < 1) { y = 1; }")
        merge_preds = cfg.predecessors[cfg.exit]
        assert len(merge_preds) == 2


class TestLoops:
    def test_while_structure(self):
        cfg = cfg_of("while (i < 3) { i = i + 1; }")
        assert len(cfg.loop_heads) == 1
        head = next(iter(cfg.loop_heads))
        out = cfg.successors[head]
        assert len(out) == 2  # enter body, exit loop
        # There is a back edge into the head.
        back = [e for e in cfg.edges if e.dst == head and e.src != cfg.entry]
        assert back

    def test_nested_loops(self):
        cfg = cfg_of("while (i < 3) { while (j < 3) { j = j + 1; } i = i + 1; }")
        assert len(cfg.loop_heads) == 2


class TestChecks:
    def test_assert_recorded_not_in_flow(self):
        cfg = cfg_of("x = 1; assert(x > 0); y = 2;")
        assert len(cfg.checks) == 1
        node, check = cfg.checks[0]
        # The assert sits between the two assignments.
        assign_edges = [e for e in cfg.edges if isinstance(e.action, Assign)]
        assert node == assign_edges[0].dst


class TestOrdering:
    def test_reverse_postorder_starts_at_entry(self):
        cfg = cfg_of("x = 1; while (x < 3) { x = x + 1; } y = x;")
        order = cfg.reverse_postorder()
        assert order[0] == cfg.entry
        assert sorted(order) == list(range(cfg.n_nodes))

    def test_rpo_places_loop_head_before_body(self):
        cfg = cfg_of("while (i < 3) { i = i + 1; }")
        order = cfg.reverse_postorder()
        head = next(iter(cfg.loop_heads))
        body_nodes = [e.dst for e in cfg.successors[head]
                      if isinstance(e.action, Assume)]
        assert order.index(head) < order.index(body_nodes[0])

    @pytest.mark.parametrize("chain", [[(2, 3), (3, 4)], [(3, 2), (2, 4)]])
    def test_unreachable_nodes_go_last_in_edge_order(self, chain):
        # 0 -> 1 is the program; the chain to 4 is unreachable from it.
        # In the second chain 2 roots its own DFS before 3 does, and
        # 3 -> 2 must still put 3 ahead of 2.
        edges = [CfgEdge(0, 1, None)] + [CfgEdge(a, b, None) for a, b in chain]
        cfg = CFG("t", 0, 1, 5, edges, set(), [], [])
        order = cfg.reverse_postorder()
        assert order[:2] == [0, 1]
        assert [order.index(a) < order.index(b) for a, b in chain] == \
            [True, True]

    def test_deep_program_no_recursion_error(self):
        source = "".join(f"x = x + {i};\n" for i in range(3000))
        cfg = cfg_of(source)
        assert len(cfg.reverse_postorder()) == cfg.n_nodes


class TestEdgeDescriptions:
    def test_describe(self):
        cfg = cfg_of("x = 1;")
        assert cfg.edges[0].describe() == "x = 1"

    def test_var_index(self):
        cfg = cfg_of("b = 1; a = b;")
        assert cfg.var_index == {"b": 0, "a": 1}
