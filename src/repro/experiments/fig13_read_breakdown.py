"""Figure 13: latency breakdown of object ops and directory reads.

Paper: performance of these operations is determined by path resolution —
Mantle's lookup latency is 83.9-89.0 % below Tectonic, 80.0-84.2 % below
InfiniFS and 16.4-74.5 % below LocoFS.  InfiniFS folds objstat's execution
into its lookup phase; LocoFS resolves directory-op paths during execution.

Each point runs traced; the phase columns are means of the ``phase``
spans under each successful op root, which the tracer folds as each op
ends (:func:`repro.experiments.base.op_aggregate`).
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table, ratio
from repro.experiments.base import (Claim, op_aggregate, register, rows_by,
                                    run_case)
from repro.experiments.fig12_read_throughput import CASES, OPS
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP


def claims(tables):
    lookup = {key: row["lookup"]
              for key, row in rows_by(tables[0], "op", "system").items()}
    for other in ("tectonic", "infinifs"):
        pairs = {op: (lookup[(op, "mantle")], lookup[(op, other)])
                 for op in OPS}
        yield Claim(f"lookup: mantle <= {other} on every op", pairs,
                    all(ours <= theirs for ours, theirs in pairs.values()))
    cut = {op: r["vs tectonic"] for op, r in rows_by(tables[1], "op").items()}
    yield Claim("lookup reduction vs tectonic >= 70% on every op", cut,
                all(v >= 70 for v in cut.values()))


@register("fig13", "Latency breakdown of object ops and directory reads",
          "Mantle's lookup latency 83.9-89.0%/80.0-84.2%/16.4-74.5% lower "
          "than Tectonic/InfiniFS/LocoFS", claims)
def run(scale: str = "quick") -> List[Table]:
    table = Table(
        "Figure 13: mean per-phase latency (us)",
        ["op", "system", "lookup", "execution", "total"])
    lookup_by = {}
    for case in CASES:
        record = run_case(case, scale, ("tracer",))
        agg = op_aggregate(record, case.op)
        lookup = lookup_by[(case.op, case.system)] = \
            agg.mean_phase_us(PHASE_LOOKUP)
        table.add_row(case.op, case.system,
                      round(lookup, 1),
                      round(agg.mean_phase_us(PHASE_EXECUTION), 1),
                      round(record.metrics.mean_latency_us(case.op), 1))
    reductions = Table(
        "Figure 13 (derived): Mantle lookup-latency reduction (%)",
        ["op", "vs tectonic", "vs infinifs", "vs locofs"])
    for op in OPS:
        row = [op]
        for other in ("tectonic", "infinifs", "locofs"):
            base = lookup_by[(op, other)]
            ours = lookup_by[(op, "mantle")]
            row.append(round(100 * (1 - ratio(ours, base)), 1) if base else 0)
        reductions.add_row(*row)
    reductions.add_note("paper ranges: 83.9-89.0 / 80.0-84.2 / 16.4-74.5; "
                        "LocoFS folds dir-op resolution into execution, so "
                        "its dirstat lookup column reads 0")
    return [table, reductions]
