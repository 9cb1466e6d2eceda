"""Abstract-interpretation substrate: transfer functions, the recursive
fixpoint engine with widening/narrowing, and the end-to-end analyzer."""

from .._lazy import lazy_exports
from .analyzer import AnalysisResult, Analyzer, CheckResult, ProcedureResult
from .fixpoint import FixpointEngine, FixpointResult
from .plan import (
    CompiledCFG, compile_action, compile_backward_cfg, compile_cfg,
)
from .transfer import apply_action, apply_assume, eval_interval, linearize

__getattr__ = lazy_exports(__name__, {
    "BackwardEngine": ".backward",
    "BackwardResult": ".backward",
    "necessary_precondition": ".backward",
})

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "BackwardEngine",
    "BackwardResult",
    "necessary_precondition",
    "CheckResult",
    "CompiledCFG",
    "FixpointEngine",
    "FixpointResult",
    "ProcedureResult",
    "apply_action",
    "apply_assume",
    "compile_action",
    "compile_backward_cfg",
    "compile_cfg",
    "eval_interval",
    "linearize",
]
