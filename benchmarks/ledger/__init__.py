"""The wall-clock ledger: six workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root names every workload and metric.
"""
