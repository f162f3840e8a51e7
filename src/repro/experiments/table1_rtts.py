"""Table 1: RTTs required for one lookup, per technique.

Paper: DBtable/metadata caching approaches need ``pathlen`` RTTs, parallel
resolving between 1 and ``pathlen`` (7.4 in practice at 512 threads for a
10-level path), tiering and Mantle a single RTT.  We *measure* the RPC
rounds a depth-10 objstat lookup actually performs in each system.

Each run is traced and a row reads mean RPCs (``rpc``-category spans
under each op root) and the lookup-phase latency share from the tracer's
per-op fold (:func:`repro.experiments.base.op_aggregate`) as its case
finishes; ``mantle-exp explain table1 --view trace`` checks the
span-derived mean RPCs and latency against the ``MetricSet`` within 1%.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table
from repro.experiments.base import (Case, Claim, op_aggregate, register,
                                    rows_by, run_case)
from repro.sim.stats import PHASE_LOOKUP

#: One depth-10 objstat point per system; ``explain table1`` runs them all.
CASES = tuple(Case(f"objstat/{system}", system, "objstat", clients=(32, 96),
                   items=(10, 24)) for system in SYSTEMS)

#: The paper's analytic RTT count for a depth-`n` lookup.
ANALYTIC = {
    "tectonic": "pathlen",
    "infinifs": "[1, pathlen] (parallel rounds)",
    "locofs": "single (dir server)",
    "mantle": "single",
}


def claims(tables):
    by_system = rows_by(tables[0], "system")
    rpcs = {s: row["mean RPCs (whole op)"] for s, row in by_system.items()}
    yield Claim("tectonic mean RPCs >= 9.5", rpcs["tectonic"],
                rpcs["tectonic"] >= 9.5)
    for system in ("mantle", "locofs"):
        yield Claim(f"{system} mean RPCs <= 2.5", rpcs[system],
                    rpcs[system] <= 2.5)
    value = by_system["tectonic"]["lookup-phase share of latency"]
    yield Claim("tectonic lookup-phase share > 0.8", value, value > 0.8)


@register("table1", "RTT rounds per lookup",
          "pathlen RTTs for DBtable, single RTT for tiering and Mantle",
          claims, knee=CASES)
def run(scale: str = "quick") -> List[Table]:
    table = Table(
        "Table 1: measured RPC rounds for a depth-10 objstat (span-derived)",
        ["system", "mean RPCs (whole op)", "lookup-phase share of latency",
         "paper analytic"])
    for case in CASES:
        agg = op_aggregate(run_case(case, scale, ("tracer",)), case.op)
        lookup = agg.mean_phase_us(PHASE_LOOKUP)
        total = agg.mean_latency_us
        table.add_row(case.system, round(agg.mean_rpcs, 1),
                      round(lookup / total, 2) if total else 0,
                      ANALYTIC[case.system])
    table.add_note("InfiniFS issues its per-level reads in ONE parallel "
                   "round, so rounds != RPC count; Mantle/LocoFS pay one "
                   "resolution RPC plus the execution-phase DB read")
    return [table]
