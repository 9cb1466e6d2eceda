"""Control-flow graph construction for the mini language.

Nodes are integer program points; edges carry an atomic *action*:

* ``Assign`` / ``AssignInterval`` / ``Havoc`` -- state updates,
* ``Assume`` -- a guard (branch conditions become complementary
  ``Assume`` edges), or
* ``None`` -- a no-op (block glue, loop back edges).

``assert`` statements do not alter control flow; they are recorded as
*checks* attached to the node where they execute, and the analyzer
discharges them against the invariant at that node.

``while`` condition nodes are collected in ``loop_heads`` -- the
widening points of the fixpoint engine -- and the loops themselves in
the nesting tree ``loop_tree``, which drives the engine's recursive
iteration.  A reverse-postorder of the graph (back edges ignored)
orders the nodes of each region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from .ast_nodes import (
    Assert, Assign, AssignInterval, Assume, Block, Havoc, If, Not,
    Procedure, Skip, Stmt, While,
)

Action = Optional[Union[Assign, AssignInterval, Havoc, Assume]]


@dataclass(frozen=True)
class CfgEdge:
    src: int
    dst: int
    action: Action

    def describe(self) -> str:
        from .pretty import pretty
        if self.action is None:
            return "nop"
        return pretty(self.action).strip().rstrip(";")


@dataclass
class LoopInfo:
    """One ``while`` loop: its head, all nodes strictly inside (head
    included), and the nested loops.  Together these form the loop
    nesting tree that drives the fixpoint engine's recursive
    (Bourdoncle-style) iteration strategy."""

    head: int
    nodes: Set[int] = field(default_factory=set)
    subloops: List["LoopInfo"] = field(default_factory=list)


@dataclass
class CFG:
    """A per-procedure control-flow graph."""

    name: str
    entry: int
    exit: int
    n_nodes: int
    edges: List[CfgEdge]
    loop_heads: Set[int]
    checks: List[Tuple[int, Assert]]
    variables: List[str]
    successors: Dict[int, List[CfgEdge]] = field(default_factory=dict)
    predecessors: Dict[int, List[CfgEdge]] = field(default_factory=dict)
    #: Loop nesting tree (top-level loops).  Its heads, nested loops
    #: included, must be exactly ``loop_heads``: the fixpoint engine
    #: solves loops by this tree and rejects a CFG where they differ.
    loop_tree: List[LoopInfo] = field(default_factory=list)

    def __post_init__(self):
        if not self.successors:
            for edge in self.edges:
                self.successors.setdefault(edge.src, []).append(edge)
                self.predecessors.setdefault(edge.dst, []).append(edge)

    @property
    def var_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder from the entry (back edges ignored via DFS
        state): the forward engine's node order within a region, and
        reversed, the backward engine's worklist priority.  Nodes the
        entry does not reach go last, each unvisited one in turn
        rooting a DFS of its own; their postorders are reversed as one
        list, so every forward edge among them, also one into an
        earlier tree, runs from an earlier node to a later one."""
        postorders: List[List[int]] = [[], []]  # entry tree, the rest
        visited: Set[int] = set()
        for root in [self.entry, *range(self.n_nodes)]:
            if root in visited:
                continue
            postorder = postorders[root != self.entry]
            # Iterative DFS (generated programs can have very deep CFGs).
            stack: List[Tuple[int, int]] = [(root, 0)]
            visited.add(root)
            while stack:
                node, child = stack[-1]
                succs = self.successors.get(node, [])
                if child < len(succs):
                    stack[-1] = (node, child + 1)
                    dst = succs[child].dst
                    if dst not in visited:
                        visited.add(dst)
                        stack.append((dst, 0))
                else:
                    stack.pop()
                    postorder.append(node)
        return [*reversed(postorders[0]), *reversed(postorders[1])]


class _Builder:
    def __init__(self):
        self.n_nodes = 0
        self.edges: List[CfgEdge] = []
        self.loop_heads: Set[int] = set()
        self.checks: List[Tuple[int, Assert]] = []
        self.loop_tree: List[LoopInfo] = []
        self._loop_stack: List[LoopInfo] = []

    def new_node(self) -> int:
        node = self.n_nodes
        self.n_nodes += 1
        for loop in self._loop_stack:
            loop.nodes.add(node)
        return node

    def add_edge(self, src: int, dst: int, action: Action) -> None:
        self.edges.append(CfgEdge(src, dst, action))

    def lower_stmt(self, stmt: Stmt, cur: int) -> int:
        """Lower one statement; returns the node where control continues."""
        if isinstance(stmt, (Assign, AssignInterval, Havoc, Assume)):
            nxt = self.new_node()
            self.add_edge(cur, nxt, stmt)
            return nxt
        if isinstance(stmt, Assert):
            self.checks.append((cur, stmt))
            return cur
        if isinstance(stmt, Skip):
            return cur
        if isinstance(stmt, Block):
            for sub in stmt.statements:
                cur = self.lower_stmt(sub, cur)
            return cur
        if isinstance(stmt, If):
            then_entry = self.new_node()
            self.add_edge(cur, then_entry, Assume(stmt.cond))
            then_exit = self.lower_stmt(stmt.then_body, then_entry)
            else_entry = self.new_node()
            self.add_edge(cur, else_entry, Assume(Not(stmt.cond)))
            else_exit = (self.lower_stmt(stmt.else_body, else_entry)
                         if stmt.else_body is not None else else_entry)
            merge = self.new_node()
            self.add_edge(then_exit, merge, None)
            self.add_edge(else_exit, merge, None)
            return merge
        if isinstance(stmt, While):
            loop = LoopInfo(head=-1)
            (self._loop_stack[-1].subloops if self._loop_stack
             else self.loop_tree).append(loop)
            self._loop_stack.append(loop)
            head = self.new_node()
            loop.head = head
            self.loop_heads.add(head)
            self.add_edge(cur, head, None)
            body_entry = self.new_node()
            self.add_edge(head, body_entry, Assume(stmt.cond))
            body_exit = self.lower_stmt(stmt.body, body_entry)
            self.add_edge(body_exit, head, None)  # back edge
            self._loop_stack.pop()
            after = self.new_node()  # the exit node lives outside the loop
            self.add_edge(head, after, Assume(Not(stmt.cond)))
            return after
        raise TypeError(f"cannot lower {stmt!r}")


def build_cfg(proc: Procedure) -> CFG:
    """Build the control-flow graph of a procedure."""
    builder = _Builder()
    entry = builder.new_node()
    exit_node = builder.lower_stmt(proc.body, entry)
    return CFG(
        name=proc.name,
        entry=entry,
        exit=exit_node,
        n_nodes=builder.n_nodes,
        edges=builder.edges,
        loop_heads=builder.loop_heads,
        checks=builder.checks,
        variables=list(proc.variables),
        loop_tree=builder.loop_tree,
    )
