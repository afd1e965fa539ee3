"""Throughput metrics and table rendering for the benchmarks."""

from .metrics import mpoints_per_sec, speedup
from .report import format_value, render_table

__all__ = [
    "mpoints_per_sec",
    "speedup",
    "render_table",
    "format_value",
]
