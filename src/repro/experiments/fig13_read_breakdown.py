"""Figure 13: latency breakdown of object ops and directory reads.

Paper: performance of these operations is determined by path resolution —
Mantle's lookup latency is 83.9-89.0 % below Tectonic, 80.0-84.2 % below
InfiniFS and 16.4-74.5 % below LocoFS.  InfiniFS folds objstat's execution
into its lookup phase; LocoFS resolves directory-op paths during execution.

``--check-profile`` reruns each point with the cost profiler's span stacks
attached and re-derives the lookup/execution columns from the *dynamic*
span tree (:func:`repro.sim.profile.dynamic_phase_breakdown`), asserting
both derivations agree within
:data:`~repro.experiments.base.CHECK_TOLERANCE` — the same
cross-check pattern PR 2 established between spans and the legacy phase
counters.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, ratio
from repro.experiments.base import (
    CHECK_TOLERANCE,
    check_profile_point,
    mdtest_run,
    pick,
    register,
)
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP

OPS = ("create", "delete", "objstat", "dirstat")

@register("fig13", "Latency breakdown of object ops and directory reads",
          "Mantle's lookup latency 83.9-89.0%/80.0-84.2%/16.4-74.5% lower "
          "than Tectonic/InfiniFS/LocoFS")
def run(scale: str = "quick", check_profile: bool = False) -> List[Table]:
    clients = pick(scale, 64, 192)
    items = pick(scale, 12, 30)
    table = Table(
        "Figure 13: mean per-phase latency (us)",
        ["op", "system", "lookup", "execution", "total"])
    checks = Table(
        "Figure 13 profiler cross-check (phase means, us)",
        ["op", "system", "phase", "metric", "profiler", "rel err"])
    lookup_by = {}
    for op in OPS:
        for system_name in SYSTEMS:
            record = mdtest_run(
                system_name, op, ("tracer",) if check_profile else (),
                clients=clients, items=items)
            metrics = record.metrics
            phases = metrics.phase_breakdown(op)
            if check_profile:
                check_profile_point(
                    checks, (op, system_name), record.tracer.spans, op,
                    {phase: phases[phase]
                     for phase in (PHASE_LOOKUP, PHASE_EXECUTION)})
            lookup_by[(op, system_name)] = phases[PHASE_LOOKUP]
            table.add_row(op, system_name,
                          round(phases[PHASE_LOOKUP], 1),
                          round(phases[PHASE_EXECUTION], 1),
                          round(metrics.mean_latency_us(op), 1))
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
    tables = [table, reductions]
    if check_profile:
        checks.add_note(f"every phase mean re-derived from the dynamic "
                        f"span tree agrees within {CHECK_TOLERANCE:.0%}")
        tables.append(checks)
    return tables
