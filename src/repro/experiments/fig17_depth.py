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
from repro.experiments.base import (
    Claim,
    map_points,
    mdtest_run,
    op_aggregate,
    pick,
    register,
    rows_by,
)
from repro.sim.stats import PHASE_LOOKUP

DEPTHS = (2, 4, 6, 8, 10)

TECTONIC_GROWS = "tectonic depth10 / depth2 > 3.0"


def _lookup_point(point) -> float:
    """One (system, depth) sweep cell -> mean lookup-phase latency."""
    system_name, depth, clients, items = point
    record = mdtest_run(system_name, "objstat", ("tracer",), depth=depth,
                        clients=clients, items=items)
    return op_aggregate(record, "objstat").mean_phase_us(PHASE_LOOKUP)


def claims(tables):
    by_system = rows_by(tables[0], "system")
    growth = {s: row["depth10 / depth2"] for s, row in by_system.items()}
    yield Claim(TECTONIC_GROWS, growth["tectonic"], growth["tectonic"] > 3.0)
    yield Claim("mantle depth10 / depth2 < 1.4", growth["mantle"],
                growth["mantle"] < 1.4)
    yield Claim("mantle depth10 / depth2 is the flattest", growth,
                all(growth["mantle"] <= v for v in growth.values()))
    lookups = [by_system["tectonic"][f"depth {d}"] for d in DEPTHS]
    yield Claim("tectonic lookup grows monotonically with depth", lookups,
                lookups == sorted(lookups))


@register("fig17", "Impact of depth on path resolution",
          "Tectonic grows linearly with depth (6.82x at 10); Mantle stays "
          "flat (1.09x)", claims, deviations={"full": {TECTONIC_GROWS: 7}})
def run(scale: str = "quick", jobs: int = 1) -> List[Table]:
    clients = pick(scale, 48, 128)
    items = pick(scale, 10, 24)
    depths = DEPTHS
    table = Table(
        "Figure 17: mean lookup latency (us) vs path depth",
        ["system"] + [f"depth {d}" for d in depths] +
        ["depth10 / depth2", "paper ratio"])
    paper_ratio = {"tectonic": 6.82, "infinifs": 6.4,
                   "locofs": float("nan"), "mantle": 1.09}
    points = [(system_name, depth, clients, items)
              for system_name in SYSTEMS for depth in depths]
    results = map_points(_lookup_point, points, jobs=jobs)
    for i, system_name in enumerate(SYSTEMS):
        lookups = results[i * len(depths):(i + 1) * len(depths)]
        table.add_row(
            system_name,
            *[round(v, 1) for v in lookups],
            round(ratio(lookups[-1], lookups[0]), 2),
            paper_ratio[system_name])
    table.add_note("paper normalises depth 10 to depth 1; we use depth 2 "
                   "as the shallowest point (a depth-1 object sits in the "
                   "root).  LocoFS's paper ratio is not quoted numerically.")
    return [table]
