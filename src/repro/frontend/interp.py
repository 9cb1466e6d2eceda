"""A concrete interpreter for the mini language.

Executes a procedure with exact rational values (integers, unless a
program divides: ``x / c`` is multiplication by the float constant
``1 / c``), resolving the non-deterministic constructs (``x = [l, u]``,
``havoc``) with a seeded random generator.  Three uses:

* **soundness fuzzing** -- every completed concrete run must end inside
  the abstract interpreter's exit invariant, and must never violate an
  assertion the analyzer verified;
* **counterexample confirmation** for failed assertion checks;
* a reference semantics for documentation and examples.

Arithmetic is exact because floats are not the program's semantics:
at ``b`` near ``1e19``, ``1 + b == b`` in floats, so a float run would
skip a branch guarded by ``b < 1 + b`` that every integer run takes.

Runs are bounded (``max_steps``, and ``MAX_BITS`` per value so exact
arithmetic stays cheap): an execution that exceeds the budget is
reported as incomplete rather than silently truncated, since a
truncated environment is *not* a real exit state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .ast_nodes import (
    AExpr, Assert, Assign, AssignInterval, Assume, BExpr, BinOp, Block,
    BoolLit, BoolOp, Cmp, Havoc, If, Neg, Not, Num, Procedure, Skip, Var,
    While,
)

#: Range used for unconstrained non-deterministic values (havoc).
HAVOC_RANGE = 64

#: Largest numerator or denominator, in bits, a run may assign.  Far
#: beyond float range (1024 bits), yet small enough that one product
#: of such values costs microseconds; a run that needs more (nested
#: loops squaring a value) is incomplete, like one out of steps.
MAX_BITS = 1 << 14


class InfeasiblePath(Exception):
    """Raised when an ``assume`` fails: this execution does not exist."""


class StepBudgetExceeded(Exception):
    """Raised when the execution exceeds its step budget, or assigns a
    value larger than ``MAX_BITS``."""


@dataclass
class RunResult:
    """Outcome of one concrete execution."""

    env: Dict[str, Fraction]
    assertion_failures: List[str] = field(default_factory=list)
    steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.assertion_failures

    def point(self, names: Sequence[str]) -> List[float]:
        """The values of ``names`` as floats, for ``contains_point``:
        a value beyond float range becomes ``inf`` or ``-inf``."""
        return [to_float(self.env[name]) for name in names]


def to_float(value: Fraction) -> float:
    """Nearest float to an exact value; ``+-inf`` beyond float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class Interpreter:
    """Concrete executor over exact rational environments."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_steps: int = 20_000):
        self.rng = rng if rng is not None else random.Random(0)
        self.max_steps = max_steps

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval_aexpr(self, expr: AExpr, env: Dict[str, Fraction]) -> Fraction:
        if isinstance(expr, Num):
            return Fraction(expr.value)
        if isinstance(expr, Var):
            return env.setdefault(expr.name, self._fresh())
        if isinstance(expr, Neg):
            return -self.eval_aexpr(expr.operand, env)
        if isinstance(expr, BinOp):
            left = self.eval_aexpr(expr.left, env)
            right = self.eval_aexpr(expr.right, env)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
        raise TypeError(f"cannot evaluate {expr!r}")

    def eval_bexpr(self, cond: BExpr, env: Dict[str, Fraction]) -> bool:
        if isinstance(cond, BoolLit):
            return cond.value
        if isinstance(cond, Not):
            return not self.eval_bexpr(cond.operand, env)
        if isinstance(cond, BoolOp):
            left = self.eval_bexpr(cond.left, env)
            if cond.op == "&&":
                return left and self.eval_bexpr(cond.right, env)
            return left or self.eval_bexpr(cond.right, env)
        if isinstance(cond, Cmp):
            left = self.eval_aexpr(cond.left, env)
            right = self.eval_aexpr(cond.right, env)
            return {
                "<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right,
                "==": left == right, "!=": left != right,
            }[cond.op]
        raise TypeError(f"cannot evaluate {cond!r}")

    def _fresh(self) -> Fraction:
        return Fraction(self.rng.randint(-HAVOC_RANGE, HAVOC_RANGE))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def run(self, proc: Procedure) -> RunResult:
        """Execute one path through a procedure.

        Raises :class:`InfeasiblePath` if an ``assume`` fails and
        :class:`StepBudgetExceeded` if the budget runs out.
        """
        env: Dict[str, Fraction] = {}
        result = RunResult(env)
        self._exec(proc.body, env, result)
        return result

    def _tick(self, result: RunResult) -> None:
        result.steps += 1
        if result.steps > self.max_steps:
            raise StepBudgetExceeded()

    def _exec(self, stmt, env: Dict[str, Fraction], result: RunResult) -> None:
        self._tick(result)
        if isinstance(stmt, Block):
            for sub in stmt.statements:
                self._exec(sub, env, result)
        elif isinstance(stmt, Assign):
            value = self.eval_aexpr(stmt.expr, env)
            if max(value.numerator.bit_length(),
                   value.denominator.bit_length()) > MAX_BITS:
                raise StepBudgetExceeded()
            env[stmt.target] = value
        elif isinstance(stmt, AssignInterval):
            lo, hi = int(stmt.lo), int(stmt.hi)
            env[stmt.target] = Fraction(self.rng.randint(lo, hi))
        elif isinstance(stmt, Havoc):
            env[stmt.target] = self._fresh()
        elif isinstance(stmt, Assume):
            if not self.eval_bexpr(stmt.cond, env):
                raise InfeasiblePath()
        elif isinstance(stmt, Assert):
            if not self.eval_bexpr(stmt.cond, env):
                from .pretty import pretty_bexpr
                result.assertion_failures.append(pretty_bexpr(stmt.cond))
        elif isinstance(stmt, If):
            if self.eval_bexpr(stmt.cond, env):
                self._exec(stmt.then_body, env, result)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body, env, result)
        elif isinstance(stmt, While):
            while self.eval_bexpr(stmt.cond, env):
                self._tick(result)
                self._exec(stmt.body, env, result)
        elif isinstance(stmt, Skip):
            pass
        else:
            raise TypeError(f"cannot execute {stmt!r}")


def sample_runs(proc: Procedure, *, tries: int = 50, seed: int = 0,
                max_steps: int = 20_000) -> List[RunResult]:
    """Collect completed concrete runs over random nondeterminism."""
    out: List[RunResult] = []
    rng = random.Random(seed)
    for _ in range(tries):
        interp = Interpreter(random.Random(rng.randrange(2 ** 30)), max_steps)
        try:
            out.append(interp.run(proc))
        except (InfeasiblePath, StepBudgetExceeded):
            continue
    return out
