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

Hand-built CFGs without a loop tree fall back to a generic priority
worklist with widening at the annotated loop heads.

The engine is generic over any domain implementing the
:class:`~repro.domains.domain.AbstractDomain` protocol -- in particular
both the optimised :class:`~repro.core.Octagon` and the baseline
:class:`~repro.core.ApronOctagon`, which is how the paper's end-to-end
comparisons run identical analysis logic over both implementations.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.budget import Budget, governed
from ..obs import trace
from ..errors import AnalysisInterrupted, BudgetExceeded
from ..frontend.cfg import CFG, LoopInfo
from .plan import CompiledCFG, compile_cfg
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
        """
        # Variable-level thresholds: include doubled values so the
        # unary DBM entries (2v <= 2t) are captured too.  Built once per
        # run -- every widening call shares the same set.
        self._threshold_set = (
            sorted({float(t) for t in self.widening_thresholds}
                   | {2.0 * float(t) for t in self.widening_thresholds})
            if self.widening_thresholds else None)
        if self.compile_transfer:
            with trace.span("compile"):
                plans = compile_cfg(cfg, integer_mode=self.integer_mode)
        else:
            plans = None
        with governed(budget):
            with trace.span("fixpoint", nodes=cfg.n_nodes) as sp:
                if cfg.loop_tree is not None:
                    result = self._analyze_structured(cfg, factory,
                                                      entry_state, plans,
                                                      budget)
                else:
                    result = self._analyze_worklist(cfg, factory,
                                                    entry_state, plans,
                                                    budget)
                sp.set(iterations=result.iterations,
                       widenings=result.widenings)
            return result

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _widen(self, old, new):
        ts = getattr(self, "_threshold_set", None)
        if ts and hasattr(old, "widening_thresholds"):
            return old.widening_thresholds(new, ts)
        return old.widening(new)

    # ------------------------------------------------------------------
    # structured (recursive) strategy
    # ------------------------------------------------------------------
    def _analyze_structured(self, cfg: CFG, factory, entry_state,
                            plans: CompiledCFG = None,
                            budget: Optional[Budget] = None) -> FixpointResult:
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
            pred_plans = plans.predecessors

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
                    states[loop.head] = self._widen(states[loop.head], new_head)
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
            # The two mutually recursive closures reference each other
            # through their cells; left intact, the cycle keeps every
            # node's state alive until the cyclic collector runs.
            solve_loop = None
        return FixpointResult(states, counters["iterations"],
                              counters["widenings"], counters["narrowings"])

    # ------------------------------------------------------------------
    # generic worklist fallback (hand-built CFGs)
    # ------------------------------------------------------------------
    def _analyze_worklist(self, cfg: CFG, factory, entry_state,
                          plans: CompiledCFG = None,
                          budget: Optional[Budget] = None) -> FixpointResult:
        n = len(cfg.variables)
        var_index = cfg.var_index
        bottom = factory.bottom(n)
        states: Dict[int, object] = {node: bottom.copy() for node in range(cfg.n_nodes)}
        states[cfg.entry] = (entry_state.copy() if entry_state is not None
                             else factory.top(n))

        priority = {node: i for i, node in enumerate(cfg.reverse_postorder())}
        visits: Dict[int, int] = {}
        iterations = widenings = narrowings = 0

        # Successor/predecessor transfers as (other_node, plan) pairs.
        # Interpreted mode (the ablation baseline) builds the pairs once
        # up front so its inner loops stay allocation-free too; the
        # difference under measurement is purely plan-vs-interpreter.
        if plans is not None:
            succ_pairs = plans.successors
            pred_pairs = plans.predecessors

            def transfer(state, plan):
                return state if plan is None else plan(state)
        else:
            succ_pairs = {node: [(e.dst, e.action) for e in edges]
                          for node, edges in cfg.successors.items()}
            pred_pairs = {node: [(e.src, e.action) for e in edges]
                          for node, edges in cfg.predecessors.items()}

            def transfer(state, action):
                return apply_action(state, action, var_index,
                                    integer_mode=self.integer_mode)

        # As in the structured solver: per-edge transfer spans are only
        # installed when tracing is on, so the hot loop stays bare.
        if trace.enabled():
            plain_transfer = transfer

            def transfer(state, plan):
                t0 = time.perf_counter()
                out = plain_transfer(state, plan)
                trace.emit("transfer", t0, time.perf_counter())
                return out

        worklist: List[tuple] = []
        seen = set()

        def push(node: int) -> None:
            if node not in seen:
                seen.add(node)
                heapq.heappush(worklist, (priority.get(node, node), node))

        push(cfg.entry)
        try:
            while worklist:
                iterations += 1
                if budget is not None:
                    budget.checkpoint()
                if iterations > self.max_iterations:
                    raise AnalysisInterrupted(
                        "iterations",
                        "fixpoint did not converge "
                        f"within {self.max_iterations} iterations",
                        partial_states=dict(states), iterations=iterations)
                _, node = heapq.heappop(worklist)
                seen.discard(node)
                state = states[node]
                if state.is_bottom():
                    continue
                for dst, action in succ_pairs.get(node, ()):
                    out = transfer(state, action)
                    old = states[dst]
                    if out.is_leq(old):
                        continue
                    merged = old.join(out)
                    if dst in cfg.loop_heads:
                        visits[dst] = visits.get(dst, 0) + 1
                        if visits[dst] > self.widening_delay:
                            widenings += 1
                            merged = self._widen(old, merged)
                    states[dst] = merged
                    push(dst)
        except BudgetExceeded as exc:
            raise AnalysisInterrupted(
                exc.reason, str(exc), partial_states=dict(states),
                iterations=iterations) from exc

        # Descending (narrowing) passes.
        for _ in range(self.narrowing_steps):
            changed = False
            for node in sorted(range(cfg.n_nodes), key=lambda x: priority.get(x, x)):
                if node == cfg.entry:
                    continue
                preds = pred_pairs.get(node, ())
                if not preds:
                    continue
                new = factory.bottom(n)
                for src, action in preds:
                    new = new.join(transfer(states[src], action))
                refined = (states[node].narrowing(new)
                           if node in cfg.loop_heads else new)
                if refined.is_leq(states[node]) and not states[node].is_leq(refined):
                    states[node] = refined
                    changed = True
                    narrowings += 1
            if not changed:
                break

        return FixpointResult(states, iterations, widenings, narrowings)
