"""Figure 15: latency breakdown of directory modifications.

Paper: Tectonic slightly better execution / InfiniFS slightly better lookup
in mkdir-e; loop detection appears only for dirrename and only in
InfiniFS/LocoFS/Mantle (relaxed Tectonic skips it); Mantle records zero
lookup time in dirrename because resolution is merged with loop detection.

Each case runs traced, and the table aggregates ``phase``-category spans
under each successful operation's root span
(:func:`repro.experiments.base.op_aggregate`) — spans are the only phase
record.  ``mantle-exp explain fig15 --view trace`` exports the same runs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.report import Table
from repro.experiments.base import op_aggregate, register
from repro.experiments.explain import CASES, Run, run_case
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, PHASE_LOOP_DETECT


def span_table(runs: Sequence[Run]) -> Table:
    """The figure's table from traced runs of its registry cases (the
    runs ``mantle-exp explain fig15 --view trace`` exports)."""
    table = Table(
        "Figure 15: mean per-phase latency (us, span-derived)",
        ["case", "system", "lookup", "loop detect", "execution", "total"])
    for case, record in runs:
        agg = op_aggregate(record, case.op)
        table.add_row(
            case.label.split("/")[0], case.system,
            round(agg.mean_phase_us(PHASE_LOOKUP), 1),
            round(agg.mean_phase_us(PHASE_LOOP_DETECT), 1),
            round(agg.mean_phase_us(PHASE_EXECUTION), 1),
            round(agg.mean_latency_us, 1))
    table.add_note("Mantle dirrename: lookup column is 0 by construction "
                   "(merged with loop detection); Tectonic has no loop "
                   "detection (relaxed consistency)")
    return table


@register("fig15", "Latency breakdown of directory modifications",
          "loop detection only for renames (not Tectonic); Mantle merges "
          "rename lookup into loop detection")
def run(scale: str = "quick") -> List[Table]:
    return [span_table([(case, run_case(case, scale, ("tracer",)))
                        for case in CASES["fig15"]])]
