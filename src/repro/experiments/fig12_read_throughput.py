"""Figure 12: throughput of object operations and directory reads.

Paper ordering (worst to best) for create/delete/objstat/dirstat:
Tectonic < InfiniFS (+0.19-0.37x) < LocoFS (+0.32-0.83x over InfiniFS)
< Mantle; overall Mantle's speedups are 2.49-4.30x over Tectonic,
1.96-3.44x over InfiniFS and 1.07-2.50x over LocoFS, with create the
closest race against LocoFS.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, ratio
from repro.experiments.base import (Case, Claim, map_points, register,
                                    rows_by, saturation_point)

OPS = ("create", "delete", "objstat", "dirstat")

#: Every (op, system) point, op-major; fig13 runs the same points.
CASES = tuple(Case(f"{system} {op}", system, op, clients=(64, 192),
                   items=(12, 30)) for op in OPS for system in SYSTEMS)

#: ``explain fig12``: stat scaling — baselines pin their shard servers'
#: CPU on per-level resolution RPCs, Mantle resolves server-side in one hop.
KNEE = tuple(case for system in ("tectonic", "mantle", "infinifs")
             for case in CASES if case.label == f"{system} objstat")

ORDERING = "tectonic < infinifs < mantle on every op"


def claims(tables):
    by_op = rows_by(tables[0], "op")
    order = {op: (row["tectonic"], row["infinifs"], row["mantle"])
             for op, row in by_op.items()}
    yield Claim(ORDERING, order, all(t < i < m for t, i, m in order.values()))
    speedup = {op: row["mantle/tectonic"] for op, row in by_op.items()}
    yield Claim("mantle/tectonic > 2.0 on every op", speedup,
                all(v > 2.0 for v in speedup.values()))
    for op, bound in (("objstat", 1.0), ("dirstat", 1.0), ("create", 0.8)):
        value = by_op[op]["mantle/locofs"]
        yield Claim(f"{op} mantle/locofs > {bound}", value, value > bound)


@register("fig12", "Throughput of object ops and directory reads",
          "Tectonic < InfiniFS < LocoFS < Mantle; Mantle 2.49-4.30x over "
          "Tectonic", claims, deviations={"full": {ORDERING: 6}},
          knee=KNEE)
def run(scale: str = "quick", jobs: int = 1) -> List[Table]:
    table = Table(
        "Figure 12: throughput (Kop/s), depth-10 paths",
        ["op"] + list(SYSTEMS) + ["mantle/tectonic", "mantle/infinifs",
                                  "mantle/locofs"])
    bottleneck_table = Table(
        "Figure 12 bottleneck attribution (saturation analyzer, "
        "steady-state window)",
        ["op"] + list(SYSTEMS))
    results = map_points(saturation_point,
                         [(case, scale) for case in CASES], jobs=jobs)
    for i, op in enumerate(OPS):
        row = results[i * len(SYSTEMS):(i + 1) * len(SYSTEMS)]
        throughput = dict(zip(SYSTEMS, [kops for kops, _, _ in row]))
        labels = dict(zip(SYSTEMS, [label for _, _, label in row]))
        table.add_row(
            op,
            *[round(throughput[s], 1) for s in SYSTEMS],
            round(ratio(throughput["mantle"], throughput["tectonic"]), 2),
            round(ratio(throughput["mantle"], throughput["infinifs"]), 2),
            round(ratio(throughput["mantle"], throughput["locofs"]), 2))
        bottleneck_table.add_row(op, *[labels[s] for s in SYSTEMS])
    table.add_note("paper speedups: 2.49-4.30x (Tectonic), 1.96-3.44x "
                   "(InfiniFS), 1.07-2.50x (LocoFS); create is the closest "
                   "race against LocoFS")
    bottleneck_table.add_note("baselines pin their TafDB/shard servers' CPU "
                              "while Mantle's reads stay wire-dominated — "
                              "the paper's §7.2 mechanism")
    return [table, bottleneck_table]
