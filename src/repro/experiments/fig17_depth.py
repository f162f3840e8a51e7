"""Figure 17: impact of path depth on resolution latency.

Paper: at depth 10, Tectonic and InfiniFS are 6.82x and 6.4x their
single-level latency (Tectonic linear in depth; InfiniFS throttled by
thread over-provisioning); LocoFS tracks Mantle until depth ~6, then its
CPU becomes the bottleneck; Mantle's depth-10 latency is only 1.09x its
single-level latency.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, ratio
from repro.experiments.base import (Case, Claim, map_points, op_aggregate,
                                    register, rows_by, run_case)
from repro.sim.stats import PHASE_LOOKUP

DEPTHS = (2, 4, 6, 8, 10)

#: Every (system, depth) objstat point, system-major.
CASES = tuple(Case(f"{system} depth{depth}", system, "objstat",
                   clients=(48, 128), items=(10, 24), depth=depth)
              for system in SYSTEMS for depth in DEPTHS)

TECTONIC_GROWS = "tectonic depth10 / depth2 > 3.0"


def _lookup_point(point) -> float:
    """One ``(case, scale)`` sweep cell -> mean lookup-phase latency."""
    record = run_case(*point, ("tracer",))
    return op_aggregate(record, "objstat").mean_phase_us(PHASE_LOOKUP)


def claims(tables):
    by_system = rows_by(tables[0], "system")
    growth = {s: row["depth10 / depth2"] for s, row in by_system.items()}
    yield Claim(TECTONIC_GROWS, growth["tectonic"], growth["tectonic"] > 3.0)
    yield Claim("mantle depth10 / depth2 < 1.2", growth["mantle"],
                growth["mantle"] < 1.2)
    yield Claim("mantle depth10 / depth2 is the flattest", growth,
                all(growth["mantle"] <= v for v in growth.values()))
    lookups = [by_system["tectonic"][f"depth {d}"] for d in DEPTHS]
    yield Claim("tectonic lookup grows monotonically with depth", lookups,
                lookups == sorted(lookups))


@register("fig17", "Impact of depth on path resolution",
          "Tectonic grows linearly with depth (6.82x at 10); Mantle stays "
          "flat (1.09x)", claims, deviations={"full": {TECTONIC_GROWS: 7}})
def run(scale: str = "quick", jobs: int = 1) -> List[Table]:
    table = Table(
        "Figure 17: mean lookup latency (us) vs path depth",
        ["system"] + [f"depth {d}" for d in DEPTHS] +
        ["depth10 / depth2", "paper ratio"])
    paper_ratio = {"tectonic": 6.82, "infinifs": 6.4,
                   "locofs": float("nan"), "mantle": 1.09}
    results = map_points(_lookup_point, [(case, scale) for case in CASES],
                         jobs=jobs)
    for i, system_name in enumerate(SYSTEMS):
        lookups = results[i * len(DEPTHS):(i + 1) * len(DEPTHS)]
        table.add_row(
            system_name,
            *[round(v, 1) for v in lookups],
            round(ratio(lookups[-1], lookups[0]), 2),
            paper_ratio[system_name])
    table.add_note("paper normalises depth 10 to depth 1; we use depth 2 "
                   "as the shallowest point (a depth-1 object sits in the "
                   "root).  LocoFS's paper ratio is not quoted numerically.")
    return [table]
