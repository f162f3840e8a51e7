"""Figure 3: characteristics of five real-world namespaces.

Paper: all five namespaces exceed 2 B entries with objects at 82.0-91.7 %
(Fig 3a); average access depths are 11.6/11.5/10.8/10.6/11.9 and for ns4
half of requests exceed depth 10 (Fig 3b).

Reproduction: the published statistics are carried as profiles; we
synthesise a scaled namespace per profile and report the realised shape
(entries, object share, depth mean/median/max and the depth CDF).
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table
from repro.experiments.base import Claim, pick, register, rows_by
from repro.workloads.profiles import FIGURE3_PROFILES, depth_cdf


def claims(tables):
    shape, depths = (rows_by(table, "namespace") for table in tables)
    yield Claim("the namespaces are ns1-ns5", sorted(shape),
                set(shape) == {"ns1", "ns2", "ns3", "ns4", "ns5"})
    share = {ns: row["object %"] for ns, row in shape.items()}
    yield Claim("75 <= object % <= 95 in every namespace", share,
                all(75.0 <= v <= 95.0 for v in share.values()))
    mean = {ns: row["synth avg depth"] for ns, row in depths.items()}
    yield Claim("8 <= synth avg depth <= 17 in every namespace", mean,
                all(8.0 <= v <= 17.0 for v in mean.values()))
    deepest = {ns: row["max depth"] for ns, row in depths.items()}
    yield Claim("max depth >= 15 in every namespace", deepest,
                all(v >= 15 for v in deepest.values()))


@register("fig03", "Namespace characteristics (ns1-ns5)",
          "billion-scale namespaces, 82-92% objects, average depth ~11",
          claims)
def run(scale: str = "quick") -> List[Table]:
    entries = pick(scale, 2000, 20000)
    shape = Table(
        "Figure 3a: namespace composition (synthetic, scaled)",
        ["namespace", "paper entries (B)", "synth entries", "object %",
         "paper object %", "dirs"])
    depths = Table(
        "Figure 3b: access depth distribution",
        ["namespace", "paper avg depth", "synth avg depth", "median depth",
         "max depth", "frac deeper than 10"])
    for profile in FIGURE3_PROFILES:
        spec = profile.synthesize(scale_entries=entries)
        shape.add_row(
            profile.name,
            round(profile.total_entries / 1e9, 1),
            spec.total_entries,
            round(100 * spec.object_ratio, 1),
            round(100 * profile.object_fraction, 1),
            len(spec.directories))
        cdf = depth_cdf(spec)
        median = next(d for d, frac in cdf.items() if frac >= 0.5)
        at_10 = max((frac for d, frac in cdf.items() if d <= 10),
                    default=0.0)
        depths.add_row(
            profile.name,
            profile.mean_depth,
            round(spec.average_depth(), 1),
            median,
            spec.max_depth(),
            round(1.0 - at_10, 2))
    shape.add_note(f"synthesised at ~{entries} entries per namespace "
                   "(paper: billions); ratios/shapes preserved")
    depths.add_note("paper max depth reaches 95; clipped to ~24-30 at this "
                    "scale to keep trees connected")
    return [shape, depths]
