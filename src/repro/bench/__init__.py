"""Benchmark harness: cluster builders, workload runner, report tables."""

from repro.bench.cluster import build_system, SYSTEMS
from repro.bench.harness import run_workload
from repro.bench.report import Table, format_table

__all__ = [
    "build_system",
    "SYSTEMS",
    "run_workload",
    "Table",
    "format_table",
]
