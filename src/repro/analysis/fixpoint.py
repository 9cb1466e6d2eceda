"""Fixpoint engine: recursive iteration over the loop nesting tree.

The engine implements the classic abstract-interpretation solver with a
Bourdoncle-style *recursive* iteration strategy.  For CFGs produced by
the front end, the loop nesting tree is known (structured programs),
and each loop is solved as a unit:

* the loop head accumulates joins of its incoming values, switching to
  **widening** after ``widening_delay`` growing iterations (optionally
  against a threshold set);
* on every (re-)iteration the loop **body is recomputed from scratch**
  in reverse postorder, recursively re-solving nested loops.  This
  "reset" semantics is what recovers precision that a flat worklist
  loses: a variable that is constant around an inner loop but grows
  across outer iterations never gets widened away at the inner head;
* once stable, up to ``narrowing_steps`` descending passes refine the
  head invariant (standard narrowing: only infinite bounds improve),
  re-propagating the body after each successful refinement.

This is the only forward solver.  It needs the loop nesting tree of
every loop head, which :func:`~repro.frontend.cfg.build_cfg` records;
a CFG whose tree misses a loop head is rejected rather than solved as
if that loop's back edge carried bottom.

The engine is generic over any domain implementing the
:class:`~repro.domains.domain.AbstractDomain` protocol -- in particular
both the optimised :class:`~repro.core.Octagon` and the baseline
:class:`~repro.core.ApronOctagon`, which is how the paper's end-to-end
comparisons run identical analysis logic over both implementations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.budget import Budget, governed
from ..obs import trace
from ..errors import AnalysisInterrupted, BudgetExceeded
from ..frontend.cfg import CFG, LoopInfo
from .plan import compile_cfg
from .transfer import apply_action


@dataclass
class FixpointResult:
    """Invariants per CFG node plus iteration statistics."""

    states: Dict[int, object]
    iterations: int
    widenings: int
    narrowings: int

    def at(self, node: int):
        return self.states[node]


@dataclass
class FixpointEngine:
    """Configurable fixpoint solver."""

    widening_delay: int = 2
    narrowing_steps: int = 3
    widening_thresholds: Sequence[float] = field(default_factory=tuple)
    max_iterations: int = 100_000
    integer_mode: bool = True
    compile_transfer: bool = True

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def analyze(self, cfg: CFG, factory, entry_state=None,
                budget: Optional[Budget] = None) -> FixpointResult:
        """Run to fixpoint; ``factory`` is a DomainFactory-like object.

        With a ``budget``, the solve checkpoints once per node
        recomputation and the closure kernels charge their traffic to
        it ambiently; exhaustion surfaces as
        :class:`~repro.errors.AnalysisInterrupted` carrying the
        partial (not yet converged, possibly unsound) state map.

        Raises :class:`ValueError` when the loop nesting tree does not
        head exactly ``cfg.loop_heads``: a loop missing from the tree
        would be solved as if its back edge carried bottom.
        """
        tree_heads = _loop_tree_heads(cfg.loop_tree)
        if tree_heads != cfg.loop_heads:
            raise ValueError(
                f"CFG {cfg.name!r}: loop tree heads {sorted(tree_heads)} "
                f"differ from loop heads {sorted(cfg.loop_heads)}")
        # Variable-level thresholds: include doubled values so the
        # unary DBM entries (2v <= 2t) are captured too.  Built once per
        # run -- every widening call shares the same set.
        threshold_set = (
            sorted({float(t) for t in self.widening_thresholds}
                   | {2.0 * float(t) for t in self.widening_thresholds})
            if self.widening_thresholds else None)
        if self.compile_transfer:
            with trace.span("compile"):
                plans = compile_cfg(cfg, integer_mode=self.integer_mode)
        else:
            plans = None

        def widen(old, new):
            if threshold_set and hasattr(old, "widening_thresholds"):
                return old.widening_thresholds(new, threshold_set)
            return old.widening(new)

        with governed(budget), \
                trace.span("fixpoint", nodes=cfg.n_nodes) as sp:
            n = len(cfg.variables)
            var_index = cfg.var_index
            bottom = factory.bottom(n)
            states: Dict[int, object] = {node: bottom.copy() for node in range(cfg.n_nodes)}
            states[cfg.entry] = (entry_state.copy() if entry_state is not None
                                 else factory.top(n))
            rpo_pos = {node: i for i, node in enumerate(cfg.reverse_postorder())}
            counters = {"iterations": 0, "widenings": 0, "narrowings": 0}

            def bump_iteration():
                counters["iterations"] += 1
                if budget is not None:
                    budget.checkpoint()
                if counters["iterations"] > self.max_iterations:
                    raise AnalysisInterrupted(
                        "iterations",
                        "fixpoint did not converge within "
                        f"{self.max_iterations} iterations",
                        partial_states=dict(states),
                        iterations=counters["iterations"])

            if plans is not None:
                pred_plans = plans.pairs

                def recompute(node):
                    bump_iteration()
                    acc = bottom
                    for src, plan in pred_plans.get(node, ()):
                        out = states[src] if plan is None else plan(states[src])
                        acc = acc.join(out)
                    return acc
            else:
                def recompute(node):
                    bump_iteration()
                    acc = bottom
                    for edge in cfg.predecessors.get(node, []):
                        out = apply_action(states[edge.src], edge.action, var_index,
                                           integer_mode=self.integer_mode)
                        acc = acc.join(out)
                    return acc

            # Per-node transfer spans cost a dict build per recomputation,
            # so the instrumented variant is only installed when tracing is
            # on -- the disabled path keeps the bare closures above.
            if trace.enabled():
                plain_recompute = recompute

                def recompute(node):
                    t0 = time.perf_counter()
                    acc = plain_recompute(node)
                    trace.emit("recompute", t0, time.perf_counter(),
                               args={"node": node})
                    return acc

            def propagate_region(nodes_in_order, subloops_by_head):
                handled = set()
                for node in nodes_in_order:
                    if node in handled:
                        continue
                    sub = subloops_by_head.get(node)
                    if sub is not None:
                        solve_loop(sub)
                        handled |= sub.nodes
                    else:
                        states[node] = recompute(node)

            def solve_loop(loop: LoopInfo) -> None:
                body_nodes = sorted(loop.nodes - {loop.head},
                                    key=lambda nd: rpo_pos.get(nd, nd))
                subs = {sub.head: sub for sub in loop.subloops}
                # Reset semantics: the component is re-solved from scratch
                # relative to its current entry values.
                states[loop.head] = bottom
                for node in body_nodes:
                    states[node] = bottom
                visits = 0
                while True:
                    new_head = recompute(loop.head)
                    if visits > 0 and new_head.is_leq(states[loop.head]):
                        break
                    if visits > self.widening_delay:
                        counters["widenings"] += 1
                        states[loop.head] = widen(states[loop.head], new_head)
                    else:
                        states[loop.head] = states[loop.head].join(new_head)
                    propagate_region(body_nodes, subs)
                    visits += 1
                # Descending (narrowing) passes on this component.
                for _ in range(self.narrowing_steps):
                    new_head = recompute(loop.head)
                    refined = states[loop.head].narrowing(new_head)
                    if refined.is_leq(states[loop.head]) and \
                            not states[loop.head].is_leq(refined):
                        counters["narrowings"] += 1
                        states[loop.head] = refined
                        propagate_region(body_nodes, subs)
                    else:
                        break

            if trace.enabled():
                plain_solve_loop = solve_loop

                def solve_loop(loop: LoopInfo) -> None:
                    with trace.span("loop", head=loop.head,
                                    nodes=len(loop.nodes)):
                        plain_solve_loop(loop)

            top_order = sorted((node for node in range(cfg.n_nodes)
                                if node != cfg.entry),
                               key=lambda nd: rpo_pos.get(nd, nd))
            try:
                propagate_region(top_order,
                                 {loop.head: loop for loop in cfg.loop_tree})
            except BudgetExceeded as exc:
                raise AnalysisInterrupted(
                    exc.reason, str(exc), partial_states=dict(states),
                    iterations=counters["iterations"]) from exc
            finally:
                # The two mutually recursive closures reference each
                # other through their cells; left intact, the cycle
                # keeps every node's state alive until the cyclic
                # collector runs.
                solve_loop = None
            sp.set(iterations=counters["iterations"],
                   widenings=counters["widenings"])
        return FixpointResult(states, counters["iterations"],
                              counters["widenings"], counters["narrowings"])


def _loop_tree_heads(loops: List[LoopInfo]) -> Set[int]:
    """Heads of every loop in a nesting tree, nested loops included."""
    heads: Set[int] = set()
    for loop in loops:
        heads.add(loop.head)
        heads |= _loop_tree_heads(loop.subloops)
    return heads
