"""Figure 4: bottlenecks of the DBtable-based metadata service (Tectonic).

Paper: (a) the lookup step consumes 89.9 % / 91.2 % / 63.1 % of
objstat / dirstat / delete latency; (b) under full contention mkdir and
dirrename throughput collapses by 99.7 % / 99.4 %.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table, ratio
from repro.experiments.base import (Case, Claim, op_aggregate, register,
                                    rows_by, run_case)
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP

_BUDGETS = {"clients": (64, 192), "items": (10, 24)}

#: Fig 4a: the traced Tectonic ops whose latency lookup dominates.
BREAKDOWN = tuple(Case(f"tectonic {op}", "tectonic", op, **_BUDGETS)
                  for op in ("objstat", "dirstat", "delete"))

#: Fig 4b: each directory op without (exclusive) and with (shared) a
#: contended parent.
CONTENTION = tuple(Case(f"tectonic {op}-{mode[0]}", "tectonic", op, mode,
                        **_BUDGETS)
                   for op in ("mkdir", "dirrename")
                   for mode in ("exclusive", "shared"))


def claims(tables):
    share = {op: row["lookup share %"]
             for op, row in rows_by(tables[0], "operation").items()}
    for op, bound in (("objstat", 80), ("dirstat", 80), ("delete", 45)):
        yield Claim(f"{op} lookup share % > {bound}", share[op],
                    share[op] > bound)
    rows = rows_by(tables[1], "operation")
    drop = {op: row["throughput drop %"] for op, row in rows.items()}
    yield Claim("throughput drop % > 60 on every op", drop,
                all(v > 60 for v in drop.values()))
    retries = {op: row["retries under conflict"] for op, row in rows.items()}
    yield Claim("retries under conflict > 0 on every op", retries,
                all(v > 0 for v in retries.values()))


@register("fig04", "DBtable-based service bottlenecks",
          "lookup dominates (63-91% of latency); contention collapses "
          "throughput by ~99%", claims)
def run(scale: str = "quick") -> List[Table]:
    breakdown = Table(
        "Figure 4a: latency breakdown of the DBtable-based service",
        ["operation", "lookup us", "execution us", "total us",
         "lookup share %", "paper share %"])
    paper_share = {"objstat": 89.9, "dirstat": 91.2, "delete": 63.1}
    for case in BREAKDOWN:
        record = run_case(case, scale, ("tracer",))
        agg = op_aggregate(record, case.op)
        lookup = agg.mean_phase_us(PHASE_LOOKUP)
        total = record.metrics.mean_latency_us(case.op)
        breakdown.add_row(
            case.op,
            round(lookup, 1),
            round(agg.mean_phase_us(PHASE_EXECUTION), 1),
            round(total, 1),
            round(100 * lookup / total, 1) if total else 0,
            paper_share[case.op])

    contention = Table(
        "Figure 4b: directory contention collapse",
        ["operation", "no conflict Kop/s", "all conflict Kop/s",
         "throughput drop %", "paper drop %", "retries under conflict"])
    paper_drop = {"mkdir": 99.7, "dirrename": 99.4}
    for free_case, hot_case in zip(CONTENTION[::2], CONTENTION[1::2]):
        op = free_case.op
        free = run_case(free_case, scale).metrics
        hot = run_case(hot_case, scale).metrics
        drop = 100 * (1 - ratio(hot.throughput_kops(), free.throughput_kops()))
        contention.add_row(
            op,
            round(free.throughput_kops(), 2),
            round(hot.throughput_kops(), 2),
            round(drop, 1),
            paper_drop[op],
            hot.retries)
    contention.add_note("collapse driven by optimistic read-modify-write "
                        "aborts on the shared parent attribute row")
    return [breakdown, contention]
