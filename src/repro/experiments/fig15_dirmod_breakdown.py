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

from typing import Iterable, List, Tuple

from repro.bench.report import Table
from repro.experiments.base import op_aggregate, register
from repro.experiments.explain import CASES, Case, run_case
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, PHASE_LOOP_DETECT
from repro.sim.trace import OpAggregate


def span_table(aggs: Iterable[Tuple[Case, OpAggregate]]) -> Table:
    """The figure's table from the op aggregates of its registry cases'
    traced runs (the runs ``mantle-exp explain fig15 --view trace``
    exports)."""
    table = Table(
        "Figure 15: mean per-phase latency (us, span-derived)",
        ["case", "system", "lookup", "loop detect", "execution", "total"])
    for case, agg in aggs:
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
    return [span_table(
        [(case, op_aggregate(run_case(case, scale, ("tracer",)), case.op))
         for case in CASES["fig15"]])]
