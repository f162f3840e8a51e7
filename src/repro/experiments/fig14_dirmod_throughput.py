"""Figure 14: throughput of directory modification operations.

Paper: in mkdir-e Tectonic and InfiniFS are very close, LocoFS worst
(throttled by Raft), Mantle highest.  In mkdir-s, Tectonic/LocoFS serialise
on the parent latch, InfiniFS's atomic primitives avoid retries but still
fall short; Mantle's delta records deliver 1.96x over InfiniFS.  In
dirrename-e Mantle wins despite loop-detection cost; in dirrename-s the
baselines degrade heavily while Mantle keeps the highest performance
(overall speedups 1.20-20.9x / 1.16-116x / 2.87-80.78x).
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, ratio
from repro.experiments.base import map_points, mdtest_run, pick, register
from repro.experiments.explain import DIRMOD_CASES


def _dirmod_point(point):
    """One (case, system) sweep cell -> (throughput, retries, bottleneck)."""
    system_name, op, mode, clients, items = point
    record = mdtest_run(system_name, op, ("verdict",), mode=mode,
                        clients=clients, items=items)
    metrics = record.metrics
    return metrics.throughput_kops(), metrics.retries, record.verdict.label


@register("fig14", "Throughput of directory modifications",
          "Mantle highest in all four cases; delta records rescue the "
          "shared-directory cases")
def run(scale: str = "quick", jobs: int = 1) -> List[Table]:
    clients = pick(scale, 64, 160)
    items = pick(scale, 10, 24)
    table = Table(
        "Figure 14: directory-modification throughput (Kop/s)",
        ["case"] + list(SYSTEMS) +
        ["mantle speedup vs best baseline", "baseline retries (worst)"])
    bottleneck_table = Table(
        "Figure 14 bottleneck attribution (saturation analyzer, "
        "steady-state window)",
        ["case"] + list(SYSTEMS))
    points = [(system_name, op, mode, clients, items)
              for op, mode in DIRMOD_CASES for system_name in SYSTEMS]
    results = map_points(_dirmod_point, points, jobs=jobs)
    for i, (op, mode) in enumerate(DIRMOD_CASES):
        suffix = "-s" if mode == "shared" else "-e"
        row = results[i * len(SYSTEMS):(i + 1) * len(SYSTEMS)]
        throughput = {s: r[0] for s, r in zip(SYSTEMS, row)}
        retries = {s: r[1] for s, r in zip(SYSTEMS, row)}
        labels = {s: r[2] for s, r in zip(SYSTEMS, row)}
        best_baseline = max(throughput[s] for s in SYSTEMS if s != "mantle")
        table.add_row(
            f"{op}{suffix}",
            *[round(throughput[s], 2) for s in SYSTEMS],
            round(ratio(throughput["mantle"], best_baseline), 2),
            max(retries[s] for s in SYSTEMS if s != "mantle"))
        bottleneck_table.add_row(f"{op}{suffix}",
                                 *[labels[s] for s in SYSTEMS])
    table.add_note("paper: mkdir-s Mantle/InfiniFS = 1.96x; '-s' collapses "
                   "Tectonic via aborts and InfiniFS renames via 2PC "
                   "retries; LocoFS pinned to its per-op Raft fsync floor")
    bottleneck_table.add_note("'-s' cases flip baselines from cpu/fsync "
                              "saturation to contention (aborts/retries); "
                              "Mantle's delta records keep it on hardware "
                              "limits")
    return [table, bottleneck_table]
