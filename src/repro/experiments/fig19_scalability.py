"""Figure 19: Mantle's scalability in namespace size and client count.

Paper: (a) objstat/create throughput is flat from 1 B to 10 B entries;
(b) create scales to ~133.5 Kop/s at 512 threads then hits TafDB's
ceiling; objstat saturates a single node at ~376.5 Kop/s (512 threads),
reaches 1288 Kop/s with 2 followers and 1894.5 Kop/s with 2 extra
learners at 2048 threads.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.experiments.base import (
    Case,
    Claim,
    map_points,
    pick,
    register,
    saturation_point,
)

#: (quick, full) ops per client.
ITEMS = (10, 20)

#: Fig 19a: objstat and create over ever larger pre-filled namespaces.
SIZE_CASES = tuple(Case(f"{op} prefill", "mantle", op, clients=(48, 96),
                        items=ITEMS, prefill=prefill)
                   for prefill in ((0, 0), (2000, 10000), (8000, 50000))
                   for op in ("objstat", "create"))

#: Fig 19b: create and three read configurations at each client count,
#: count-major.
CLIENT_CASES = tuple(
    Case(label, "mantle", op, clients=count, items=ITEMS, config=config,
         contrast=label == "objstat leader-only")
    for count in ((32, 64), (128, 256), (320, 640))
    for label, op, config in (
        ("create", "create", None),
        ("objstat leader-only", "objstat",
         MantleConfig(enable_follower_read=False)),
        ("objstat +followers", "objstat",
         MantleConfig(enable_follower_read=True)),
        ("objstat +learners", "objstat",
         MantleConfig(enable_follower_read=True, num_learners=2))))

#: ``explain fig19``: the top client count, where create rides the TafDB
#: commit fsync floor and leader-only objstat (the contrast) saturates the
#: leader IndexNode's CPU.
KNEE = tuple(case for label in ("objstat leader-only", "create")
             for case in CLIENT_CASES[-4:] if case.label == label)


def claims(tables):
    sizes = {column: tables[0].column(column)
             for column in ("objstat", "create")}
    yield Claim("objstat and create max <= 1.15x min across sizes", sizes,
                all(max(v) <= 1.15 * min(v) for v in sizes.values()))
    rows = tables[1].as_dicts()
    top = max(rows, key=lambda r: r["clients"])
    low = min(rows, key=lambda r: r["clients"])
    value = top["learners/no-follower speedup"]
    yield Claim("top client count: learners/no-follower speedup > 1.5",
                value, value > 1.5)
    a, b = top["objstat +learners"], top["objstat +followers"]
    yield Claim("top client count: +learners > 0.9x +followers", (a, b),
                a > b * 0.9)
    a, b = top["create"], low["create"]
    yield Claim("create: top client count > lowest", (a, b), a > b)


@register("fig19", "Scalability: namespace size and client count",
          "flat throughput up to 10B-entry namespaces; follower/learner "
          "reads scale lookups ~5x past a single node", claims, knee=KNEE)
def run(scale: str = "quick", jobs: int = 1) -> List[Table]:
    size_table = Table(
        "Figure 19a: throughput vs namespace size (Kop/s)",
        ["pre-filled entries", "objstat", "create"])
    size_results = map_points(saturation_point,
                              [(case, scale) for case in SIZE_CASES],
                              jobs=jobs)
    for i in range(0, len(SIZE_CASES), 2):
        prefill = pick(scale, *SIZE_CASES[i].prefill)
        size_table.add_row(
            prefill * 11,  # dirs + 10 objects each
            round(size_results[i][0], 1),
            round(size_results[i + 1][0], 1))
    size_table.add_note("paper sweeps 1B-10B entries; hash-partitioned "
                        "shards and hash caches are size-invariant, which "
                        "is the property under test")

    client_table = Table(
        "Figure 19b: throughput vs concurrent clients (Kop/s)",
        ["clients", "create", "objstat (no follower read)",
         "objstat +followers", "objstat +learners",
         "learners/no-follower speedup"])
    bottleneck_table = Table(
        "Figure 19b bottleneck attribution (saturation analyzer, "
        "steady-state window)",
        ["clients", "create", "objstat (no follower read)",
         "objstat +followers", "objstat +learners"])
    client_results = map_points(saturation_point,
                                [(case, scale) for case in CLIENT_CASES],
                                jobs=jobs)
    for i in range(0, len(CLIENT_CASES), 4):
        count = pick(scale, *CLIENT_CASES[i].clients)
        cells = client_results[i:i + 4]
        create_kops, solo, with_followers, with_learners = (
            c[0] for c in cells)
        client_table.add_row(
            count,
            round(create_kops, 1),
            round(solo, 1),
            round(with_followers, 1),
            round(with_learners, 1),
            round(ratio(with_learners, solo), 2))
        bottleneck_table.add_row(count, *[c[2] for c in cells])
    client_table.add_note("paper: leader-only objstat levels at ~376 Kop/s, "
                          "+2 followers 1288, +2 learners 1894 (2048 "
                          "threads); create caps at TafDB capacity")
    bottleneck_table.add_note("the objstat knee is the leader IndexNode's "
                              "CPU; followers/learners shift it back to the "
                              "wire, create hits TafDB first")
    return [size_table, client_table, bottleneck_table]
