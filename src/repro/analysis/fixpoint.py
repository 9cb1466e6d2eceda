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

The engine keeps a state only where one is read more than once or
after the solve (:func:`transient_nodes` names the rest); a node's
state that only its successor reads is dropped once that successor
has been recomputed, and :meth:`FixpointResult.at` replays it on
demand.

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
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..core.budget import Budget, governed
from ..obs import trace
from ..errors import AnalysisInterrupted, BudgetExceeded
from ..frontend.cfg import CFG, LoopInfo
from .plan import compile_cfg
from .transfer import apply_action


@dataclass
class FixpointResult:
    """Invariants of one solve plus iteration statistics.

    ``states`` holds the invariant only where one is read more than once
    or after the solve: the entry, the exit, loop heads, nodes with
    checks and every node that is not *transient* (see
    :func:`transient_nodes`).  :meth:`at` returns a stored state as is
    and recomputes any other node by replaying the edges forward from
    its nearest stored ancestors, through the same transfer the solve
    ran (compiled plans, or ``apply_action`` under ``--no-compile``).
    The final body states of a loop are those of its last pass, which
    read the final head state, so the replay is bit-identical to the
    state the solve computed there.
    """

    states: Dict[int, object]
    iterations: int
    widenings: int
    narrowings: int
    #: ``(node, read) -> state``: a node's state from ``read(pred)`` of
    #: its predecessors; ``None`` when ``states`` covers every node.
    transfer: Optional[Callable] = field(default=None, repr=False)
    cfg: Optional[CFG] = field(default=None, repr=False)

    def at(self, node: int):
        if node in self.states or self.transfer is None:
            return self.states[node]
        return _replay(node, self.states, self.transfer, self.cfg)


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
            bottom = factory.bottom(n)
            transfer = _make_transfer(cfg, plans, bottom, self.integer_mode)
            transient = transient_nodes(cfg)
            # A transient node's state is dropped as soon as its only
            # reader, its successor, has been recomputed from it.
            consumes = {cfg.successors[p][0].dst: p for p in transient}
            states: Dict[int, object] = dict.fromkeys(
                (node for node in range(cfg.n_nodes) if node not in transient),
                bottom)
            states[cfg.entry] = (entry_state.copy() if entry_state is not None
                                 else factory.top(n))
            read = states.__getitem__
            rpo = cfg.reverse_postorder()
            rpo_pos = {node: i for i, node in enumerate(rpo)}
            counters = {"iterations": 0, "widenings": 0, "narrowings": 0}

            def bump_iteration():
                counters["iterations"] += 1
                if budget is not None:
                    budget.checkpoint()
                if counters["iterations"] > self.max_iterations:
                    raise BudgetExceeded(
                        "iterations",
                        "fixpoint did not converge within "
                        f"{self.max_iterations} iterations")

            def recompute(node):
                bump_iteration()
                return transfer(node, read)

            # Per-node transfer spans cost a dict build per recomputation,
            # so the instrumented variant is only installed when tracing is
            # on -- the disabled path keeps the bare closure above.
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
                        pred = consumes.get(node)
                        if pred is not None:
                            del states[pred]

            def solve_loop(loop: LoopInfo) -> None:
                body_nodes = sorted(loop.nodes - {loop.head},
                                    key=lambda nd: rpo_pos.get(nd, nd))
                subs = {sub.head: sub for sub in loop.subloops}
                # Reset semantics: the component is re-solved from scratch
                # relative to its current entry values.  Transient body
                # nodes hold no state between passes.
                states[loop.head] = bottom
                for node in body_nodes:
                    if node not in transient:
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
                # Fill in the nodes without a state in one forward pass,
                # one transfer each, outside the exhausted budget so it
                # is charged nothing more.
                partial_states = dict(states)
                with governed(None):
                    for node in rpo:
                        if node not in partial_states:
                            partial_states[node] = transfer(
                                node, partial_states.__getitem__)
                raise AnalysisInterrupted(
                    exc.reason, str(exc), partial_states=partial_states,
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
                              counters["widenings"], counters["narrowings"],
                              transfer, cfg)


def transient_nodes(cfg: CFG) -> Set[int]:
    """Nodes whose state is read exactly once, during the solve.

    A node ``p`` is transient when it has exactly one successor ``s``,
    ``s`` has no other predecessor, and ``p`` is neither the entry, the
    exit, a loop head nor a node with a check.  Its only reader is
    ``s``, which every pass recomputes right after ``p`` (both lie in
    the same innermost loop, and ``s`` is no loop head), so the engine
    drops ``p``'s state once ``s`` has read it.
    """
    kept = {cfg.entry, cfg.exit} | cfg.loop_heads | {n for n, _ in cfg.checks}
    out = set()
    for node, succs in cfg.successors.items():
        if (len(succs) == 1 and node not in kept
                and len(cfg.predecessors[succs[0].dst]) == 1):
            out.add(node)
    return out


def _make_transfer(cfg: CFG, plans, bottom, integer_mode: bool) -> Callable:
    """``(node, read) -> state``: the join over ``node``'s incoming
    edges of each edge's transfer applied to ``read(pred)``, through the
    compiled ``plans`` or, without them, through ``apply_action``.

    Every domain's ``bottom.join(x)`` is ``x.copy()``, so a node with
    one incoming edge takes the edge's output without the join; an
    output that is the input itself (an identity edge) is copied, so no
    two nodes share a state object.
    """
    if plans is not None:
        pairs = plans.pairs
    else:
        var_index = cfg.var_index
        pairs = {node: [(edge.src, partial(apply_action, action=edge.action,
                                           var_index=var_index,
                                           integer_mode=integer_mode))
                        for edge in edges]
                 for node, edges in cfg.predecessors.items()}

    def transfer(node, read):
        row = pairs.get(node, ())
        if len(row) == 1:
            ((src, plan),) = row
            state = read(src)
            out = state if plan is None else plan(state)
            return state.copy() if out is state else out
        acc = bottom
        for src, plan in row:
            out = read(src) if plan is None else plan(read(src))
            acc = acc.join(out)
        return acc
    return transfer


def _replay(node: int, states: Dict[int, object], transfer: Callable,
            cfg: CFG):
    """``node``'s state recomputed from ``states``.

    Walks back from ``node`` through single predecessors missing from
    ``states`` (a transient node with several predecessors has only
    stored ones), then applies ``transfer`` forward along that chain.
    """
    chain = [node]
    preds = cfg.predecessors.get(node, ())
    while len(preds) == 1 and preds[0].src not in states:
        chain.append(preds[0].src)
        preds = cfg.predecessors.get(chain[-1], ())
    replayed: Dict[int, object] = {}

    def read(src):
        return replayed[src] if src in replayed else states[src]

    for nd in reversed(chain):
        replayed[nd] = transfer(nd, read)
    # In the solve, the successor's transfer read this state last and
    # may have closed it in place or found it empty (a semantic fact a
    # state keeps); read it the same way so it leaves in the same form.
    transfer(cfg.successors[node][0].dst, read)
    return replayed[node]


def _loop_tree_heads(loops: List[LoopInfo]) -> Set[int]:
    """Heads of every loop in a nesting tree, nested loops included."""
    heads: Set[int] = set()
    for loop in loops:
        heads.add(loop.head)
        heads |= _loop_tree_heads(loop.subloops)
    return heads
