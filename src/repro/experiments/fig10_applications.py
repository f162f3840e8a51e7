"""Figure 10: completion time of real-world workloads.

Paper (metadata only, Fig 10a): in Analytics the contention on the shared
temporary/output directory dominates — Tectonic is 75 % slower than
InfiniFS, LocoFS improves on InfiniFS by 27 % yet stays 225 % above Mantle.
In Audio (conflict-free, resolution-bound) InfiniFS cuts Tectonic by 23.9 %
and Mantle cuts LocoFS by 40.8 %.

With data access enabled (Fig 10b): Mantle shortens Analytics completion by
73.2/93.3/63.3 % versus Tectonic/InfiniFS/LocoFS and Audio by
47.7/40.1/38.5 %.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, ratio
from repro.experiments.base import Claim, app_metrics, pick, register
from repro.workloads.audio import AudioPreprocessWorkload
from repro.workloads.spark import SparkAnalyticsWorkload


def _workloads(scale: str):
    clients = pick(scale, 24, 64)
    return {
        "analytics": lambda: SparkAnalyticsWorkload(
            num_clients=clients, parts_per_task=pick(scale, 2, 4),
            rounds=pick(scale, 3, 6)),
        "audio": lambda: AudioPreprocessWorkload(
            num_clients=clients, segments=pick(scale, 8, 16), depth=11),
    }


def claims(tables):
    vs_best, holds = {}, True
    for figure, table in zip(("10a", "10b"), tables):
        for workload in ("analytics", "audio"):
            times = {r["system"]: r["completion ms"] for r in table.as_dicts()
                     if r["workload"] == workload}
            best = min(v for k, v in times.items() if k != "mantle")
            vs_best[f"{figure} {workload}"] = round(times["mantle"] / best, 3)
            holds = holds and times["mantle"] <= best * 1.05
    yield Claim("mantle completion <= 1.05x the best baseline's in every "
                "cell", vs_best, holds)


@register("fig10", "Application completion time (Analytics + Audio)",
          "Mantle cuts completion by 63.3-93.3% (Analytics) and "
          "38.5-47.7% (Audio) vs baselines", claims)
def run(scale: str = "quick") -> List[Table]:
    tables = []
    for data_access, label in ((False, "Figure 10a: metadata only"),
                               (True, "Figure 10b: with data access")):
        table = Table(label + " — completion time",
                      ["workload", "system", "completion ms",
                       "vs mantle", "retries"])
        for workload_name, factory in _workloads(scale).items():
            results = {}
            retries = {}
            for system_name in SYSTEMS:
                metrics = app_metrics(system_name, factory(),
                                      data_access=data_access)
                results[system_name] = metrics.duration_us / 1000.0
                retries[system_name] = metrics.retries
            for system_name in SYSTEMS:
                table.add_row(
                    workload_name, system_name,
                    round(results[system_name], 2),
                    round(ratio(results[system_name], results["mantle"]), 2),
                    retries[system_name])
        table.add_note("'vs mantle' is the completion-time ratio; paper "
                       "reports Mantle fastest in every cell")
        tables.append(table)
    return tables
