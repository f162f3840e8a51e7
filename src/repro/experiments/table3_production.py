"""Table 3: characteristics of the five Cluster-C production namespaces.

Paper: C1-C5 hold 75 M - 3.2 B objects with 28.1-62.0 % small objects and
peak production throughputs of 175-400 Kop/s (lookup) and 9-24 Kop/s
(mkdir) — "only a fraction of Mantle's full throughput capacity".

Reproduction: the published characteristics are carried as data; we
synthesise each namespace's shape and then *measure* Mantle's sustainable
lookup and mkdir throughput at bench scale, confirming the headroom claim
(measured capacity comfortably above the scaled production peaks).
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table
from repro.experiments.base import Case, Claim, register, rows_by, run_case
from repro.workloads.profiles import TABLE3_PROFILES

#: Mantle's lookup and mkdir capacity at bench scale.
CASES = tuple(Case(metric, "mantle", op, clients=(64, 160), items=(12, 24))
              for metric, op in (("lookup", "objstat"), ("mkdir", "mkdir")))


def claims(tables):
    by_name = rows_by(tables[0], "name")
    yield Claim("the namespaces are C1-C5", sorted(by_name),
                set(by_name) == {"C1", "C2", "C3", "C4", "C5"})
    for op, low, high in (("lookup", 175, 400), ("mkdir", 9, 24)):
        peaks = {name: row[f"peak {op} Kop/s"]
                 for name, row in by_name.items()}
        yield Claim(f"{low} <= peak {op} Kop/s <= {high} everywhere", peaks,
                    all(low <= v <= high for v in peaks.values()))
    by_metric = rows_by(tables[1], "metric")
    for metric in ("lookup", "mkdir"):
        value = by_metric[metric]["headroom x (vs scaled peak)"]
        yield Claim(f"{metric} headroom x > 1.0", value, value > 1.0)


@register("table3", "Production namespaces (Cluster C)",
          "peaks of 175-400 Kop/s lookup and 9-24 Kop/s mkdir leave "
          "Mantle significant headroom", claims)
def run(scale: str = "quick") -> List[Table]:
    profiles = Table(
        "Table 3: namespace characteristics (published data)",
        ["name", "#objects", "#dirs", "small obj %", "peak lookup Kop/s",
         "peak mkdir Kop/s"])
    raw = {
        "C1": ("3.2B", "27M"), "C2": ("2.1B", "194M"),
        "C3": ("1.2B", "145M"), "C4": ("0.8B", "88M"),
        "C5": ("75M", "9M"),
    }
    for profile in TABLE3_PROFILES:
        objs, dirs = raw[profile.name]
        profiles.add_row(profile.name, objs, dirs,
                         round(100 * profile.small_object_fraction, 1),
                         profile.peak_lookup_kops, profile.peak_mkdir_kops)

    lookup, mkdir = (run_case(case, scale).metrics for case in CASES)
    capacity = Table(
        "Table 3 (derived): measured Mantle capacity at bench scale",
        ["metric", "measured Kop/s", "max production peak (paper)",
         "headroom x (vs scaled peak)"])
    # The bench cluster is ~1/8 of the paper's hardware; scale peaks down
    # accordingly for the headroom comparison.
    hw_fraction = 8.0
    peak_lookup = max(p.peak_lookup_kops for p in TABLE3_PROFILES)
    peak_mkdir = max(p.peak_mkdir_kops for p in TABLE3_PROFILES)
    capacity.add_row("lookup", round(lookup.throughput_kops(), 1),
                     peak_lookup,
                     round(lookup.throughput_kops()
                           / (peak_lookup / hw_fraction), 2))
    capacity.add_row("mkdir", round(mkdir.throughput_kops(), 1),
                     peak_mkdir,
                     round(mkdir.throughput_kops()
                           / (peak_mkdir / hw_fraction), 2))
    capacity.add_note("headroom > 1 reproduces the paper's 'production "
                      "peaks are only a fraction of capacity' claim")
    return [profiles, capacity]
