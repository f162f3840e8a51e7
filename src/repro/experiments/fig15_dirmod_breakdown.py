"""Figure 15: latency breakdown of directory modifications.

Paper: Tectonic slightly better execution / InfiniFS slightly better lookup
in mkdir-e; loop detection appears only for dirrename and only in
InfiniFS/LocoFS/Mantle (relaxed Tectonic skips it); Mantle records zero
lookup time in dirrename because resolution is merged with loop detection.

Each case runs traced; the tracer folds each successful op's
``phase``-category spans as the op ends, and a row reads those means
(:func:`repro.experiments.base.op_aggregate`) as its case finishes — spans
are the only phase record.  ``mantle-exp explain fig15 --view trace``
exports the same runs.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table
from repro.experiments.base import (Case, Claim, op_aggregate, register,
                                    rows_by, run_case)
from repro.experiments.fig14_dirmod_throughput import DIRMOD_CASES
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, PHASE_LOOP_DETECT

#: Every (workload, system) point, workload-major; ``explain fig15`` runs
#: them all.
CASES = tuple(Case(f"{name}/{system}", system, op, mode, clients=(48, 128),
                   items=(8, 20))
              for name, (op, mode) in DIRMOD_CASES.items()
              for system in SYSTEMS)


def claims(tables):
    cell = rows_by(tables[0], "case", "system")

    def column(header, system):
        return {case: cell[(case, system)][header]
                for case in ("dirrename-e", "dirrename-s")}

    lookup = column("lookup", "mantle")
    yield Claim("mantle dirrename lookup == 0", lookup,
                all(v == 0 for v in lookup.values()))
    loop = column("loop detect", "mantle")
    yield Claim("mantle dirrename loop detect > 0", loop,
                all(v > 0 for v in loop.values()))
    loop = column("loop detect", "tectonic")
    yield Claim("tectonic dirrename loop detect == 0", loop,
                all(v == 0 for v in loop.values()))
    value = cell[("dirrename-e", "infinifs")]["loop detect"]
    yield Claim("infinifs dirrename-e loop detect > 0", value, value > 0)
    loop = {system: cell[("mkdir-e", system)]["loop detect"]
            for system in ("tectonic", "infinifs", "locofs", "mantle")}
    yield Claim("mkdir-e loop detect == 0 on every system", loop,
                all(v == 0 for v in loop.values()))
    a, b = (cell[(case, "tectonic")]["execution"]
            for case in ("mkdir-s", "mkdir-e"))
    yield Claim("tectonic execution: mkdir-s > 3x mkdir-e", (a, b), a > 3 * b)


@register("fig15", "Latency breakdown of directory modifications",
          "loop detection only for renames (not Tectonic); Mantle merges "
          "rename lookup into loop detection", claims, knee=CASES)
def run(scale: str = "quick") -> List[Table]:
    table = Table(
        "Figure 15: mean per-phase latency (us, span-derived)",
        ["case", "system", "lookup", "loop detect", "execution", "total"])
    for case in CASES:
        agg = op_aggregate(run_case(case, scale, ("tracer",)), case.op)
        table.add_row(
            case.label.split("/")[0], case.system,
            round(agg.mean_phase_us(PHASE_LOOKUP), 1),
            round(agg.mean_phase_us(PHASE_LOOP_DETECT), 1),
            round(agg.mean_phase_us(PHASE_EXECUTION), 1),
            round(agg.mean_latency_us, 1))
    table.add_note("Mantle dirrename: lookup column is 0 by construction "
                   "(merged with loop detection); Tectonic has no loop "
                   "detection (relaxed consistency)")
    return [table]
