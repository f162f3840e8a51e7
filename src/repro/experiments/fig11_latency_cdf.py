"""Figure 11: latency CDFs of metadata operations inside the applications.

Paper: in Analytics, InfiniFS's dirrename tail explodes under contention
(10.6 % of operations above 5 s, peak 52 s) while Tectonic/LocoFS mkdir and
dirrename curves nearly coincide; in Audio, InfiniFS's objstat distribution
is broad (speculation variability) and Mantle's curves are tight and fast.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table
from repro.experiments.base import Claim, app_metrics, pick, register, rows_by
from repro.workloads.audio import AudioPreprocessWorkload
from repro.workloads.spark import SparkAnalyticsWorkload

_PERCENTILES = (50, 90, 99, 100)


def claims(tables):
    spark, audio = (rows_by(table, "op", "system") for table in tables)
    tail = {system: row["frac > 10x median"]
            for (op, system), row in spark.items() if op == "dirrename"}
    worst = max(v for k, v in tail.items() if k != "mantle")
    yield Claim("worst baseline dirrename frac > 10x median > mantle's",
                tail, worst > tail["mantle"])
    yield Claim("mantle dirrename frac > 10x median <= 0.05",
                tail["mantle"], tail["mantle"] <= 0.05)
    p50 = {system: row["p50"]
           for (op, system), row in audio.items() if op == "objstat"}
    for other in ("tectonic", "infinifs"):
        yield Claim(f"objstat p50: mantle <= {other}",
                    (p50["mantle"], p50[other]), p50["mantle"] <= p50[other])


@register("fig11", "Latency CDFs of application metadata operations",
          "contended dirrename has extreme tails in baselines; Mantle's "
          "distributions are tight", claims)
def run(scale: str = "quick") -> List[Table]:
    clients = pick(scale, 24, 64)
    tables = []

    spark_ops = ("mkdir", "dirrename")
    spark_table = Table(
        "Figure 11a/11b: Analytics op latency percentiles (us)",
        ["op", "system"] + [f"p{p}" for p in _PERCENTILES] +
        ["frac > 10x median"])
    for system_name in SYSTEMS:
        latencies = app_metrics(system_name, SparkAnalyticsWorkload(
            num_clients=clients, parts_per_task=2,
            rounds=pick(scale, 3, 6))).latency
        for op in spark_ops:
            recorder = latencies.get(op)
            if recorder is None:
                continue
            median = recorder.p50
            spark_table.add_row(
                op, system_name,
                *[round(recorder.p(p), 1) for p in _PERCENTILES],
                round(recorder.fraction_above(10 * median), 3))
    spark_table.add_note("paper: 10.6% of InfiniFS dirrenames exceed 5s; "
                         "the tail-mass column is the scaled analogue")
    tables.append(spark_table)

    audio_ops = ("objstat", "readdir")
    audio_table = Table(
        "Figure 11c/11d: Audio op latency percentiles (us)",
        ["op", "system"] + [f"p{p}" for p in _PERCENTILES] +
        ["spread p99/p50"])
    for system_name in SYSTEMS:
        latencies = app_metrics(system_name, AudioPreprocessWorkload(
            num_clients=clients, segments=pick(scale, 8, 16))).latency
        for op in audio_ops:
            recorder = latencies.get(op)
            if recorder is None:
                continue
            spread = recorder.p99 / recorder.p50 if recorder.p50 else 0.0
            audio_table.add_row(
                op, system_name,
                *[round(recorder.p(p), 1) for p in _PERCENTILES],
                round(spread, 2))
    audio_table.add_note("paper: InfiniFS shows the broadest objstat "
                         "distribution, Mantle the tightest/fastest")
    tables.append(audio_table)
    return tables
