"""Transfer functions: from mini-language actions to domain operations.

The bridge between the front end and any abstract domain implementing
the :class:`~repro.domains.domain.AbstractDomain` protocol:

* affine expressions are *linearised* into :class:`LinExpr` and handed
  to ``assign_linexpr`` / ``assume_linear`` (the octagon handles the
  octagonal shapes exactly and interval-linearises the rest);
* non-affine expressions (variable products) are evaluated in interval
  arithmetic over the current state's bounds and assigned as intervals;
* boolean conditions are pushed to negation normal form; conjunction
  maps to sequential refinement, disjunction to a join of refinements.

Comparisons use real-valued semantics: strict inequalities are
approximated by their non-strict closure, and ``!=`` refines to the
join of the two strict sides.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.constraints import LinExpr
from ..frontend.ast_nodes import (
    AExpr, Assign, AssignInterval, Assume, BExpr, BinOp, BoolLit, BoolOp,
    Cmp, Havoc, Neg, Not, Num, Var,
)
from ..frontend.cfg import Action


def linearize(expr: AExpr, var_index: Dict[str, int]) -> Optional[LinExpr]:
    """Convert an affine expression to a LinExpr; None if non-affine."""
    if isinstance(expr, Num):
        return LinExpr.of_const(expr.value)
    if isinstance(expr, Var):
        return LinExpr.of_var(var_index[expr.name])
    if isinstance(expr, Neg):
        inner = linearize(expr.operand, var_index)
        return None if inner is None else inner.scaled(-1.0)
    if isinstance(expr, BinOp):
        left = linearize(expr.left, var_index)
        right = linearize(expr.right, var_index)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left.plus(right)
        if expr.op == "-":
            return left.minus(right)
        if expr.op == "*":
            if not left.coeffs:
                return right.scaled(left.const)
            if not right.coeffs:
                return left.scaled(right.const)
            return None  # variable * variable: non-affine
    return None


def eval_interval(
    expr: AExpr,
    bounds: Callable[[int], Tuple[float, float]],
    var_index: Dict[str, int],
) -> Tuple[float, float]:
    """Interval evaluation of an arbitrary expression (handles products)."""
    if isinstance(expr, Num):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        return bounds(var_index[expr.name])
    if isinstance(expr, Neg):
        lo, hi = eval_interval(expr.operand, bounds, var_index)
        return (-hi, -lo)
    if isinstance(expr, BinOp):
        llo, lhi = eval_interval(expr.left, bounds, var_index)
        rlo, rhi = eval_interval(expr.right, bounds, var_index)
        if expr.op == "+":
            return (llo + rlo, lhi + rhi)
        if expr.op == "-":
            return (llo - rhi, lhi - rlo)
        if expr.op == "*":
            candidates = []
            for a in (llo, lhi):
                for b in (rlo, rhi):
                    # 0 * inf contributes 0; multiplying would make a nan
                    # (and numpy scalars warn about it).
                    candidates.append(0.0 if a == 0 or b == 0 else a * b)
            return (min(candidates), max(candidates))
    raise TypeError(f"cannot evaluate {expr!r}")


def apply_action(state, action: Action, var_index: Dict[str, int],
                 *, integer_mode: bool = True):
    """Apply one CFG edge action to an abstract state."""
    if action is None:
        return state
    if isinstance(action, Assign):
        v = var_index[action.target]
        lin = linearize(action.expr, var_index)
        if lin is not None:
            return state.assign_linexpr(v, lin)
        lo, hi = eval_interval(action.expr, state.bounds, var_index)
        return state.assign_interval(v, lo, hi)
    if isinstance(action, AssignInterval):
        return state.assign_interval(var_index[action.target], action.lo, action.hi)
    if isinstance(action, Havoc):
        return state.forget(var_index[action.target])
    if isinstance(action, Assume):
        return apply_assume(state, action.cond, var_index, integer_mode=integer_mode)
    raise TypeError(f"cannot apply {action!r}")


def apply_assume(state, cond: BExpr, var_index: Dict[str, int], *,
                 negate: bool = False, integer_mode: bool = True):
    """Refine ``state`` with ``cond`` (or its negation).

    With ``integer_mode`` (the default -- the workload programs are
    integer programs) strict comparisons tighten by one:
    ``e < 0  ==>  e <= -1``.  Over the reals they fall back to their
    non-strict closure, which is sound but cannot separate boundaries.
    """
    if isinstance(cond, BoolLit):
        value = cond.value != negate
        return state if value else type(state).bottom(state.n)
    if isinstance(cond, Not):
        return apply_assume(state, cond.operand, var_index,
                            negate=not negate, integer_mode=integer_mode)
    if isinstance(cond, BoolOp):
        # De Morgan under negation.
        conjunctive = (cond.op == "&&") != negate

        def go(s, sub):
            return apply_assume(s, sub, var_index,
                                negate=negate, integer_mode=integer_mode)

        if conjunctive:
            return go(go(state, cond.left), cond.right)
        # Disjunction: a bottom side contributes nothing to the union,
        # so skip the join (``join(bottom, x)`` would only copy ``x``).
        left = go(state, cond.left)
        if left.is_bottom():
            return go(state, cond.right)
        right = go(state, cond.right)
        if right.is_bottom():
            return left
        return left.join(right)
    if isinstance(cond, Cmp):
        return _apply_cmp(state, cond, var_index, negate, integer_mode)
    raise TypeError(f"cannot assume {cond!r}")


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _leq_zero(state, diff: LinExpr, strict: bool, integer_mode: bool):
    """Refine with ``diff <= 0`` / ``diff < 0``."""
    if strict and integer_mode:
        diff = diff.plus(LinExpr.of_const(1.0))
        strict = False
    return state.assume_linear(diff, strict=strict)


def _apply_cmp(state, cmp_: Cmp, var_index: Dict[str, int], negate: bool,
               integer_mode: bool):
    op = _NEGATED[cmp_.op] if negate else cmp_.op
    left = linearize(cmp_.left, var_index)
    right = linearize(cmp_.right, var_index)
    if left is None or right is None:
        # Non-affine comparison: no refinement (sound).
        return state
    diff = left.minus(right)  # condition is: diff OP 0
    if op in ("<", "<="):
        return _leq_zero(state, diff, op == "<", integer_mode)
    if op in (">", ">="):
        return _leq_zero(state, diff.scaled(-1.0), op == ">", integer_mode)
    if op == "==":
        refined = _leq_zero(state, diff, False, integer_mode)
        return _leq_zero(refined, diff.scaled(-1.0), False, integer_mode)
    # '!=': the union of the two strict sides (joined only when both
    # sides are feasible -- a bottom side short-circuits the join).
    lt = _leq_zero(state, diff, True, integer_mode)
    if lt.is_bottom():
        return _leq_zero(state, diff.scaled(-1.0), True, integer_mode)
    gt = _leq_zero(state, diff.scaled(-1.0), True, integer_mode)
    if gt.is_bottom():
        return lt
    return lt.join(gt)
