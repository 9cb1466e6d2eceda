"""Measurement and reporting harness for the paper's tables and figures."""

from .reporting import format_table, geomean, render_ascii_series, save_result
from .runner import (
    ClosureComparison,
    closure_comparison,
    fig8_row,
    table2_row,
    table3_row,
)

__all__ = [
    "ClosureComparison",
    "closure_comparison",
    "fig8_row",
    "format_table",
    "geomean",
    "render_ascii_series",
    "save_result",
    "table2_row",
    "table3_row",
]
