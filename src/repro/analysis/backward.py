"""Backward analysis: necessary preconditions of reaching a condition.

Given a CFG, a target node and a condition, this engine computes at
every program point an over-approximation of the states from which some
execution *may reach* the target satisfying the condition:

    B(node) superset of { s | exists path node ->* target,
                              final state satisfies the condition }

Transfer runs the program backwards:

* an assignment edge applies the domain's **substitution** (backward
  assignment) -- see :meth:`repro.core.Octagon.substitute_linexpr`;
* an ``assume g`` edge meets with ``g`` (a path must pass the guard);
* ``havoc``/interval assignments drop the written variable;
* a node joins over its *outgoing* edges; loop heads are widened.

The result is useful for the classic applications: if ``B(entry)`` is
bottom, the target condition is unreachable (an alternative proof of an
assertion); otherwise ``B(entry)`` is a necessary precondition that can
seed a counterexample search.

Currently the octagon domains implement substitution, so the engine is
specific to them (duck-typed on ``substitute_linexpr``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.budget import Budget, governed
from ..core.constraints import LinExpr
from ..errors import AnalysisInterrupted, BudgetExceeded
from ..frontend.ast_nodes import (
    Assign, AssignInterval, Assume, BExpr, Havoc,
)
from ..frontend.cfg import CFG
from .plan import compile_backward_cfg
from .transfer import apply_assume, linearize


@dataclass
class BackwardResult:
    """Per-node necessary precondition plus statistics."""

    states: Dict[int, object]
    iterations: int

    def at(self, node: int):
        return self.states[node]

    def precondition(self, cfg: CFG):
        return self.states[cfg.entry]


@dataclass
class BackwardEngine:
    """Worklist solver for the backward may-reach analysis."""

    widening_delay: int = 2
    max_iterations: int = 50_000
    integer_mode: bool = True
    compile_transfer: bool = True

    def analyze(self, cfg: CFG, factory, target: int,
                condition: Optional[BExpr] = None,
                budget: Optional[Budget] = None) -> BackwardResult:
        """Necessary precondition of reaching ``target`` (optionally
        with ``condition`` holding there)."""
        n = len(cfg.variables)
        var_index = cfg.var_index
        bottom = factory.bottom(n)
        states: Dict[int, object] = {node: bottom.copy()
                                     for node in range(cfg.n_nodes)}
        seed = factory.top(n)
        if condition is not None:
            seed = apply_assume(seed, condition, var_index,
                                integer_mode=self.integer_mode)

        # Backward plans: each edge's reversed action compiled once.
        plans = (compile_backward_cfg(cfg, integer_mode=self.integer_mode)
                 if self.compile_transfer else None)
        if plans is not None:
            succ_pairs = plans.pairs
        else:
            succ_pairs = {node: [(e.dst, e) for e in edges]
                          for node, edges in cfg.successors.items()}

        order = cfg.reverse_postorder()
        priority = {node: -i for i, node in enumerate(order)}  # reverse
        visits: Dict[int, int] = {}
        worklist = [target]
        pending = {target}
        iterations = 0
        try:
            with governed(budget):
                while worklist:
                    iterations += 1
                    if budget is not None:
                        budget.checkpoint()
                    if iterations > self.max_iterations:
                        raise AnalysisInterrupted(
                            "iterations",
                            "backward analysis did not converge within "
                            f"{self.max_iterations} iterations",
                            partial_states=dict(states),
                            iterations=iterations)
                    worklist.sort(key=lambda nd: priority.get(nd, 0))
                    node = worklist.pop(0)
                    pending.discard(node)
                    new = seed.copy() if node == target else bottom
                    if plans is not None:
                        for dst, plan in succ_pairs.get(node, ()):
                            post = states[dst]
                            new = new.join(post if plan is None else plan(post))
                    else:
                        for dst, edge in succ_pairs.get(node, ()):
                            new = new.join(self._transfer_back(
                                states[dst], edge, var_index))
                    old = states[node]
                    if new.is_leq(old):
                        continue
                    merged = old.join(new)
                    if node in cfg.loop_heads:
                        visits[node] = visits.get(node, 0) + 1
                        if visits[node] > self.widening_delay:
                            merged = old.widening(merged)
                    states[node] = merged
                    for edge in cfg.predecessors.get(node, []):
                        if edge.src not in pending:
                            pending.add(edge.src)
                            worklist.append(edge.src)
                    # The node's own successors do not change, but re-push
                    # the node itself if it is its own predecessor via a
                    # self loop.
        except BudgetExceeded as exc:
            raise AnalysisInterrupted(
                exc.reason, str(exc), partial_states=dict(states),
                iterations=iterations) from exc
        return BackwardResult(states, iterations)

    def _transfer_back(self, post, edge, var_index):
        """One edge, backwards."""
        action = edge.action
        if action is None:
            return post
        if isinstance(action, Assume):
            return apply_assume(post, action.cond, var_index,
                                integer_mode=self.integer_mode)
        if isinstance(action, Assign):
            v = var_index[action.target]
            lin = linearize(action.expr, var_index)
            if lin is not None:
                return post.substitute_linexpr(v, lin)
            # Non-affine: any pre-state value of v could have produced
            # a value in the (unknown) result; drop v's constraints.
            return post.forget(v)
        if isinstance(action, AssignInterval):
            # v := [lo, hi]: some value in the range must land in post,
            # so meet with the range before dropping v.
            v = var_index[action.target]
            limited = post
            if action.hi != float("inf"):
                limited = limited.assume_linear(LinExpr({v: 1.0}, -action.hi))
            if action.lo != float("-inf"):
                limited = limited.assume_linear(LinExpr({v: -1.0}, action.lo))
            return limited.forget(v)
        if isinstance(action, Havoc):
            # v gets an arbitrary fresh value: the pre-state places no
            # constraint on v.
            return post.forget(var_index[action.target])
        raise TypeError(f"cannot run {action!r} backwards")


def necessary_precondition(source_or_cfg, condition: Optional[BExpr] = None,
                           *, domain: str = "octagon",
                           target: Optional[int] = None,
                           compile_transfer: bool = True) -> object:
    """Convenience wrapper: precondition of reaching the exit (or
    ``target``) of a single-procedure program."""
    from ..domains.domain import get_domain
    from ..frontend.cfg import build_cfg
    from ..frontend.parser import parse_program

    if isinstance(source_or_cfg, str):
        cfg = build_cfg(parse_program(source_or_cfg).procedures[0])
    else:
        cfg = source_or_cfg
    engine = BackwardEngine(compile_transfer=compile_transfer)
    result = engine.analyze(cfg, get_domain(domain),
                            cfg.exit if target is None else target,
                            condition)
    return result.precondition(cfg)
