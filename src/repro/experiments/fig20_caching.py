"""Figure 20: impact of adding metadata caching (AM-Cache).

Paper: caching barely helps the Analytics workload (dominated by directory
modifications).  For Audio it cuts InfiniFS from 115.1 s to 63.0 s, while
Mantle only goes from 68.9 s to 63.0 s — its single-RPC lookups leave
little room for client caching.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.experiments.base import Claim, pick, register, rows_by
from repro.workloads.audio import AudioPreprocessWorkload
from repro.workloads.spark import SparkAnalyticsWorkload

_CACHE_CAPACITY = 4096


def _client_cache_hit_rate(system_name: str, system) -> float:
    """Aggregate hit rate across the proxies' client/AM caches."""
    hits = 0
    misses = 0
    for entry in system.proxies:
        cache = entry.client_cache if system_name == "mantle" else entry[2]
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
    seen = hits + misses
    return hits / seen if seen else 0.0


def _completion_ms(system_name: str, cached: bool, workload):
    if system_name == "mantle":
        config = MantleConfig(
            client_cache_capacity=_CACHE_CAPACITY if cached else 0)
        system = build_system("mantle", "quick", config=config)
    else:
        system = build_system(
            "infinifs", "quick",
            am_cache_capacity=_CACHE_CAPACITY if cached else 0)
    try:
        duration_ms = run_workload(system, workload).duration_us / 1000.0
        return duration_ms, _client_cache_hit_rate(system_name, system)
    finally:
        system.shutdown()


def claims(tables):
    gain = {key: row["improvement %"]
            for key, row in rows_by(tables[0], "workload", "system").items()}
    a, b = gain[("audio", "infinifs")], gain[("audio", "mantle")]
    yield Claim("audio: infinifs improvement % > 15", a, a > 15)
    yield Claim("audio improvement %: infinifs > mantle", (a, b), a > b)
    value = gain[("analytics", "mantle")]
    yield Claim("analytics: mantle improvement % < 20", value, value < 20)


@register("fig20", "Impact of adding metadata caching",
          "caching transforms InfiniFS on read-heavy Audio but yields "
          "little for Mantle (single-RPC lookups) or for Analytics", claims)
def run(scale: str = "quick") -> List[Table]:
    clients = pick(scale, 24, 64)
    table = Table(
        "Figure 20: completion time with/without metadata caching (ms)",
        ["workload", "system", "no cache", "with cache", "improvement %",
         "cache hit %"])
    workloads = {
        "analytics": lambda: SparkAnalyticsWorkload(
            num_clients=clients, parts_per_task=2, rounds=pick(scale, 3, 6)),
        "audio": lambda: AudioPreprocessWorkload(
            num_clients=clients, segments=pick(scale, 10, 20), depth=11),
    }
    for workload_name, factory in workloads.items():
        for system_name in ("infinifs", "mantle"):
            plain, _no_cache_hr = _completion_ms(
                system_name, False, factory())
            cached, hit_rate = _completion_ms(system_name, True, factory())
            table.add_row(
                workload_name, system_name,
                round(plain, 2), round(cached, 2),
                round(100 * (1 - ratio(cached, plain)), 1),
                round(100 * hit_rate, 1))
    table.add_note("paper (Audio): InfiniFS 115.1s -> 63.0s, Mantle "
                   "68.9s -> 63.0s; Analytics sees only modest gains")
    table.add_note("cache hit % aggregates the proxies' client/AM LRU "
                   "counters for the cached run")
    return [table]
