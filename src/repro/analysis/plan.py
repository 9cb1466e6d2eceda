"""Compiled transfer plans: per-edge action compilation.

The interpreter in :mod:`repro.analysis.transfer` re-does, on *every*
fixpoint iteration, work that the CFG fixes once per analysis: it
re-walks the ``Assume``/``Assign`` ASTs, re-linearises the same
expressions, re-resolves variable names through ``var_index`` and
re-derives the negation-normal form of every branch condition.  This
module performs all of that exactly once per edge and per analysis:

* :func:`compile_action` turns one CFG edge action into a
  :class:`TransferPlan` -- a plain Python closure ``state -> state``
  with every linearisation resolved, every variable index bound and
  every assume tree flattened into conjunction/disjunction plan nodes;
* conjunctive chains of *unary octagonal* comparisons on one variable
  (range guards ``lo <= x && x <= hi``, equality tests ``x == c``) are
  pre-decomposed into :class:`OctConstraint` batches executed with a
  single ``meet_constraints`` call -- one incremental closure instead
  of one per comparison;
* disjunctions and ``!=`` short-circuit to bottom early;
* :func:`compile_cfg` / :func:`compile_backward_cfg` compile a whole
  CFG's edges once and hand the fixpoint engines plan-resolved
  adjacency lists.

Determinism contract (enforced by tests): the compiled executor is
**matrix-identical** to the interpreted path, not merely equivalent up
to closure.  Every plan performs the same domain-level operations in
the same order as :func:`repro.analysis.transfer.apply_action`, except
where both orders provably produce the *canonical closed* DBM of the
same constraint set:

* a batched ``meet_constraints`` over unary constraints sharing one
  variable ends in an incremental closure, i.e. the canonical closed
  form -- exactly what the per-comparison interpreted sequence (each
  step of which also ends canonically closed) produces;
* octagon transfer outputs otherwise depend only on the closed form of
  their input, and the one representation-sensitive operator
  (widening) only ever sees join/widening outputs, which the above
  keeps bit-identical.

Because widening left arguments stay bit-identical, iteration,
widening and narrowing counts match the interpreter exactly -- the
ablation (``--no-compile``) changes constant factors only.

The batched fast path engages for the two DBM-backed octagon
implementations (whose ``assume_linear`` it specialises); every other
domain falls back to the very same ``assume_linear`` calls the
interpreter would make, so compilation is behaviour-preserving for all
domains.

Counters (via :mod:`repro.core.stats` global counter sources):
``plans_compiled``, ``plan_exec``, ``constraints_batched`` and
``closures_avoided`` (incremental closures saved by batching).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core import stats
from ..obs import metrics
from ..core.bounds import is_finite
from ..core.constraints import LinExpr, OctConstraint
from ..frontend.ast_nodes import (
    Assign, AssignInterval, Assume, BExpr, BoolLit, BoolOp, Cmp, Havoc, Not,
)
from ..frontend.cfg import CFG, Action
from .transfer import _NEGATED, eval_interval, linearize

#: A compiled edge action: ``state -> state``.  ``None`` stands for the
#: identity plan (``None`` actions and trivially-true assumes), letting
#: engines skip the call entirely.
TransferPlan = Optional[Callable]

# ----------------------------------------------------------------------
# hot-path counters (module globals, snapshotted by StatsCollector)
# ----------------------------------------------------------------------
_COUNTS: Dict[str, int] = {
    "plans_compiled": 0,
    "plan_exec": 0,
    "constraints_batched": 0,
    "closures_avoided": 0,
}

stats.register_counter_source(lambda: dict(_COUNTS))

metrics.REGISTRY.counter("plans_compiled",
                         "CFG edge actions compiled to transfer plans")
metrics.REGISTRY.counter("plan_exec", "Compiled transfer-plan executions")
metrics.REGISTRY.counter("constraints_batched",
                         "Octagonal constraints applied via one batched meet")
metrics.REGISTRY.counter("closures_avoided",
                         "Incremental closures elided by constraint batching")


def counters() -> Dict[str, int]:
    """Cumulative plan-layer counters (for tests)."""
    return dict(_COUNTS)


# The DBM-backed octagon implementations, whose ``assume_linear`` the
# batched constraint path specialises exactly (canonical closed output)
# and which provide ``assign_const``/``assign_var``, say so with the
# class attribute ``BATCHABLE``.  Testing an attribute
# rather than a tuple of classes keeps the domains a run never meets
# off the import graph.  The lookup is on the type, so a delegating
# proxy (``workloads.traces.TracingState``) keeps the generic path.


# ----------------------------------------------------------------------
# comparison compilation
# ----------------------------------------------------------------------
class _Test:
    """One compiled ``diff <= 0`` refinement (strict already folded).

    ``constraint`` is the static octagonal decomposition when ``diff``
    is a single unit-coefficient variable (the only shape for which the
    interpreted ``assume_linear`` derives a state-independent
    constraint set), else ``None``.
    """

    __slots__ = ("diff", "strict", "constraint")

    def __init__(self, diff: LinExpr, strict: bool):
        self.diff = diff
        self.strict = strict
        self.constraint: Optional[OctConstraint] = None
        coeffs = {v: c for v, c in diff.coeffs.items() if c != 0.0}
        if len(coeffs) == 1:
            ((v, c),) = coeffs.items()
            # c*v + const <= 0  ==>  c*v <= -const; the finiteness guard
            # mirrors ``assume_linear`` (an infinite bound contributes no
            # constraint there, so it must not contribute one here).
            if c in (1.0, -1.0) and is_finite(-diff.const):
                self.constraint = OctConstraint(v, int(c), v, 0, -diff.const)


def _make_test(diff: LinExpr, strict: bool, integer_mode: bool) -> _Test:
    """Mirror of :func:`transfer._leq_zero`'s integer tightening."""
    if strict and integer_mode:
        diff = diff.plus(LinExpr.of_const(1.0))
        strict = False
    return _Test(diff, strict)


def _const_truth(diff: LinExpr) -> Optional[bool]:
    """``diff <= 0`` decided at compile time for variable-free diffs."""
    if any(c != 0.0 for c in diff.coeffs.values()):
        return None
    return diff.const <= 0


# Compile-time condition nodes.  ``True``/``False`` literals are the
# Python booleans; everything else is a node with ``executor()``.
class _TestChain:
    """A maximal run of tests executed sequentially (conjunction).

    Consecutive statically-decomposed tests on one common variable are
    fused into a single ``meet_constraints`` batch.
    """

    def __init__(self, tests: List[_Test]):
        self.tests = tests

    def executor(self) -> Callable:
        steps = _chain_steps(self.tests)
        if len(steps) == 1:
            return steps[0]

        def run_chain(state):
            cur = state
            for step in steps:
                cur = step(cur)
                if getattr(cur, "_bottom", False):
                    break  # bottom is absorbing for every later step
            return cur

        return run_chain


def _chain_steps(tests: List[_Test]) -> List[Callable]:
    """Group a test chain into batched / general executor steps."""
    steps: List[Callable] = []
    i = 0
    while i < len(tests):
        test = tests[i]
        if test.constraint is None:
            steps.append(_lin_step(test.diff, test.strict))
            i += 1
            continue
        var = test.constraint.i
        group = [test]
        while (i + len(group) < len(tests)
               and tests[i + len(group)].constraint is not None
               and tests[i + len(group)].constraint.i == var):
            group.append(tests[i + len(group)])
        steps.append(_batch_step(group))
        i += len(group)
    return steps


def _lin_step(diff: LinExpr, strict: bool) -> Callable:
    """General linear test: the interpreter's own ``assume_linear``."""
    def step(state):
        return state.assume_linear(diff, strict=strict)
    return step


def _batch_step(group: List[_Test]) -> Callable:
    """``k`` unary tests on one variable as one ``meet_constraints``.

    For the DBM octagons this is the per-test interpreted sequence with
    the intermediate incremental closures elided: both end in the
    canonical closed form of the same system, so the result matrices
    are identical while ``k - 1`` incremental closures are saved.
    """
    cons: Tuple[OctConstraint, ...] = tuple(t.constraint for t in group)
    fallback = [(t.diff, t.strict) for t in group]
    n_cons = len(cons)
    saved = n_cons - 1

    def step(state, _c=_COUNTS):
        if getattr(type(state), "BATCHABLE", False):
            if state.is_bottom():
                return state.copy()
            _c["constraints_batched"] += n_cons
            _c["closures_avoided"] += saved
            return state.closure().meet_constraints(cons)
        cur = state
        for diff, strict in fallback:
            cur = cur.assume_linear(diff, strict=strict)
        return cur

    return step


def _identity(state):
    return state


def _to_bottom(state):
    return type(state).bottom(state.n)


def _disj_executor(left: Callable, right: Callable) -> Callable:
    """``left || right`` with the early bottom short-circuits of
    :func:`transfer.apply_assume` (join skipped when a side is bottom)."""
    def run_disj(state):
        a = left(state)
        if a.is_bottom():
            return right(state)
        b = right(state)
        if b.is_bottom():
            return a
        return a.join(b)
    return run_disj


def _compile_cond(cond: BExpr, var_index: Dict[str, int], negate: bool,
                  integer_mode: bool):
    """Compile a condition to ``True`` / ``False`` / an executor node.

    Negation is pushed to the leaves at compile time (the interpreter
    re-derives the same NNF on every application).
    """
    if isinstance(cond, BoolLit):
        return cond.value != negate
    if isinstance(cond, Not):
        return _compile_cond(cond.operand, var_index, not negate, integer_mode)
    if isinstance(cond, BoolOp):
        conjunctive = (cond.op == "&&") != negate
        left = _compile_cond(cond.left, var_index, negate, integer_mode)
        right = _compile_cond(cond.right, var_index, negate, integer_mode)
        if conjunctive:
            if left is False or right is False:
                return False  # bottom absorbs the remaining refinements
            if left is True:
                return right
            if right is True:
                return left
            parts = []
            for sub in (left, right):
                if isinstance(sub, _TestChain):
                    parts.extend(sub.tests)  # flatten nested conjunctions
                else:
                    parts.append(sub)
            if all(isinstance(p, _Test) for p in parts):
                return _TestChain(parts)
            return _ConjNode(parts)
        # Disjunction: both branches refine the same entry state.  A
        # trivially-true side must stay a node: the interpreter joins
        # the *unrefined* (possibly unclosed) state with the other
        # side, and that join's output matrix is what widening sees --
        # simplifying it away would not be matrix-identical.  Bottom
        # sides do vanish exactly (the interpreter's short-circuit).
        if left is False:
            return right
        if right is False:
            return left
        return _DisjNode(left, right)
    if isinstance(cond, Cmp):
        return _compile_cmp(cond, var_index, negate, integer_mode)
    raise TypeError(f"cannot compile {cond!r}")


class _ConjNode:
    """Conjunction with non-test parts (nested disjunctions)."""

    def __init__(self, parts: List[object]):
        self.parts = parts

    def executor(self) -> Callable:
        steps: List[Callable] = []
        run: List[_Test] = []
        for part in self.parts:
            if isinstance(part, _Test):
                run.append(part)
                continue
            if run:
                steps.extend(_chain_steps(run))
                run = []
            steps.append(_node_executor(part))
        if run:
            steps.extend(_chain_steps(run))

        def run_conj(state):
            cur = state
            for step in steps:
                cur = step(cur)
                if getattr(cur, "_bottom", False):
                    break
            return cur

        return run_conj


class _DisjNode:
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def executor(self) -> Callable:
        return _disj_executor(_node_executor(self.left),
                              _node_executor(self.right))


def _node_executor(node) -> Callable:
    """Executor of one compiled condition node (or literal)."""
    if node is True:
        return _identity
    if node is False:
        return _to_bottom
    if isinstance(node, _Test):
        return _TestChain([node]).executor()
    return node.executor()


def _compile_cmp(cmp_: Cmp, var_index: Dict[str, int], negate: bool,
                 integer_mode: bool):
    """Compile one comparison, mirroring :func:`transfer._apply_cmp`."""
    op = _NEGATED[cmp_.op] if negate else cmp_.op
    left = linearize(cmp_.left, var_index)
    right = linearize(cmp_.right, var_index)
    if left is None or right is None:
        return True  # non-affine comparison: no refinement (sound)
    diff = left.minus(right)
    if op in ("<", "<="):
        return _finish_test(_make_test(diff, op == "<", integer_mode))
    if op in (">", ">="):
        return _finish_test(
            _make_test(diff.scaled(-1.0), op == ">", integer_mode))
    if op == "==":
        lo = _make_test(diff, False, integer_mode)
        hi = _make_test(diff.scaled(-1.0), False, integer_mode)
        truths = (_const_truth(lo.diff), _const_truth(hi.diff))
        if truths[0] is not None and truths[1] is not None:
            return truths[0] and truths[1]
        return _TestChain([lo, hi])
    # '!=': the union of the two strict sides.
    lt = _make_test(diff, True, integer_mode)
    gt = _make_test(diff.scaled(-1.0), True, integer_mode)
    lt_node = _finish_test(lt)
    gt_node = _finish_test(gt)
    if lt_node is True or gt_node is True:
        return True
    if lt_node is False:
        return gt_node
    if gt_node is False:
        return lt_node
    return _DisjNode(lt_node, gt_node)


def _finish_test(test: _Test):
    truth = _const_truth(test.diff)
    return test if truth is None else truth


# ----------------------------------------------------------------------
# action compilation
# ----------------------------------------------------------------------
def compile_action(action: Action, var_index: Dict[str, int], *,
                   integer_mode: bool = True) -> TransferPlan:
    """Compile one CFG edge action to a transfer plan.

    Returns ``None`` for identity actions (``None`` edges and
    trivially-true assumes); otherwise a closure performing the same
    domain operations as :func:`transfer.apply_action`.
    """
    if action is None:
        return None
    if isinstance(action, Assign):
        return _compile_assign(action, var_index)
    if isinstance(action, AssignInterval):
        v = var_index[action.target]
        lo, hi = action.lo, action.hi

        def run_interval(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            return state.assign_interval(v, lo, hi)

        return run_interval
    if isinstance(action, Havoc):
        v = var_index[action.target]

        def run_havoc(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            return state.forget(v)

        return run_havoc
    if isinstance(action, Assume):
        node = _compile_cond(action.cond, var_index, False, integer_mode)
        if node is True:
            return None
        fn = _node_executor(node)

        def run_assume(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            return fn(state)

        return run_assume
    raise TypeError(f"cannot compile {action!r}")


def _compile_assign(action: Assign, var_index: Dict[str, int]) -> Callable:
    """Hoist the linearisation and (where safe) the shape dispatch.

    The compiled plan hands each domain the very same ``LinExpr`` the
    interpreter would (zero coefficients and all): ``assign_linexpr``
    implementations dispatch on its shape per domain, and duplicating
    that dispatch here would have to match every domain's quirks.  Only
    for the two matrix octagon domains -- whose prologue is verbatim
    the filter-and-dispatch below -- is the shape resolved at compile
    time, behind a runtime ``isinstance`` gate.
    """
    v = var_index[action.target]
    lin = linearize(action.expr, var_index)
    if lin is None:
        expr = action.expr

        def run_nonaffine(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            lo, hi = eval_interval(expr, state.bounds, var_index)
            return state.assign_interval(v, lo, hi)

        return run_nonaffine

    # The matrix domains' ``assign_linexpr`` prologue is exactly this
    # filter-and-dispatch, so it can be resolved once at compile time
    # for them; every other domain keeps its own dispatch on the raw
    # expression.
    coeffs = {w: c for w, c in lin.coeffs.items() if c != 0.0}
    if not coeffs:
        const = lin.const

        def run_const(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            if getattr(type(state), "BATCHABLE", False):
                return state.assign_const(v, const)
            return state.assign_linexpr(v, lin)

        return run_const
    if len(coeffs) == 1:
        ((w, c),) = coeffs.items()
        if c in (1.0, -1.0):
            coeff, offset = int(c), lin.const

            def run_var(state, _c=_COUNTS):
                _c["plan_exec"] += 1
                if getattr(type(state), "BATCHABLE", False):
                    return state.assign_var(v, w, coeff=coeff, offset=offset)
                return state.assign_linexpr(v, lin)

            return run_var

    def run_linexpr(state, _c=_COUNTS):
        _c["plan_exec"] += 1
        return state.assign_linexpr(v, lin)

    return run_linexpr


# ----------------------------------------------------------------------
# whole-CFG compilation (forward and backward)
# ----------------------------------------------------------------------
class CompiledCFG:
    """Per-edge plans of one CFG, as plan-resolved adjacency lists.

    ``pairs[node]`` holds ``(other_node, plan)`` pairs aligned with the
    CFG adjacency list the engine walks -- ``cfg.predecessors`` for the
    forward engine, ``cfg.successors`` for the backward one; a ``None``
    plan is the identity.
    """

    __slots__ = ("pairs", "n_plans")

    def __init__(self, pairs, n_plans: int):
        self.pairs = pairs
        self.n_plans = n_plans


def _compile_edges(adjacency, other_end: str, compile_one, var_index,
                   integer_mode: bool) -> CompiledCFG:
    """Compile every edge of ``adjacency`` (``node -> edges``) once."""
    n_plans = 0
    pairs = {}
    for node, edges in adjacency.items():
        row = []
        for edge in edges:
            plan = compile_one(edge.action, var_index,
                               integer_mode=integer_mode)
            if plan is not None:
                n_plans += 1
            row.append((getattr(edge, other_end), plan))
        pairs[node] = row
    _COUNTS["plans_compiled"] += n_plans
    return CompiledCFG(pairs, n_plans)


def compile_cfg(cfg: CFG, *, integer_mode: bool = True) -> CompiledCFG:
    """Forward plans for every edge, as predecessor adjacency lists."""
    return _compile_edges(cfg.predecessors, "src", compile_action,
                          cfg.var_index, integer_mode)


def compile_backward_action(action: Action, var_index: Dict[str, int], *,
                            integer_mode: bool = True) -> TransferPlan:
    """Compile one edge action for the backward (precondition) engine,
    mirroring :meth:`repro.analysis.backward.BackwardEngine._transfer_back`."""
    if action is None:
        return None
    if isinstance(action, Assume):
        return compile_action(action, var_index, integer_mode=integer_mode)
    if isinstance(action, Assign):
        v = var_index[action.target]
        lin = linearize(action.expr, var_index)
        if lin is None:
            def run_forget_na(state, _c=_COUNTS):
                _c["plan_exec"] += 1
                return state.forget(v)
            return run_forget_na

        def run_subst(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            return state.substitute_linexpr(v, lin)

        return run_subst
    if isinstance(action, AssignInterval):
        v = var_index[action.target]
        upper = (LinExpr({v: 1.0}, -action.hi)
                 if action.hi != float("inf") else None)
        lower = (LinExpr({v: -1.0}, action.lo)
                 if action.lo != float("-inf") else None)

        def run_interval_back(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            limited = state
            if upper is not None:
                limited = limited.assume_linear(upper)
            if lower is not None:
                limited = limited.assume_linear(lower)
            return limited.forget(v)

        return run_interval_back
    if isinstance(action, Havoc):
        v = var_index[action.target]

        def run_havoc_back(state, _c=_COUNTS):
            _c["plan_exec"] += 1
            return state.forget(v)

        return run_havoc_back
    raise TypeError(f"cannot compile {action!r} backwards")


def compile_backward_cfg(cfg: CFG, *, integer_mode: bool = True) -> CompiledCFG:
    """Backward plans for every edge, as successor adjacency lists."""
    return _compile_edges(cfg.successors, "dst", compile_backward_action,
                          cfg.var_index, integer_mode)
