"""Figure 15: latency breakdown of directory modifications.

Paper: Tectonic slightly better execution / InfiniFS slightly better lookup
in mkdir-e; loop detection appears only for dirrename and only in
InfiniFS/LocoFS/Mantle (relaxed Tectonic skips it); Mantle records zero
lookup time in dirrename because resolution is merged with loop detection.

Since PR 2 the numbers are derived from the span tracer
(:mod:`repro.sim.trace`) rather than the ``OpContext`` phase counters: each
case runs traced, and the table aggregates ``phase``-category spans under
each successful operation's root span.  The legacy counters still exist (the
phase API is a shim over spans) and ``mantle-exp explain fig15 --view trace``
cross-checks both derivations agree within 1%.

``--check-profile`` adds a third, independent derivation: the cost
profiler's *dynamic* span tree
(:func:`repro.sim.profile.dynamic_phase_breakdown`, keyed on
``dyn_parent_id`` rather than the declared ``parent_id``) must reproduce
the same phase means within
:data:`~repro.experiments.base.CHECK_TOLERANCE`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.report import Table
from repro.experiments.base import (
    CHECK_TOLERANCE,
    check_profile_point,
    register,
)
from repro.experiments.explain import CASES, Run, run_case
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, PHASE_LOOP_DETECT
from repro.sim.trace import aggregate_ops

def check_profile_table(runs: Sequence[Run]) -> Table:
    """Re-derive every case's phase means from the dynamic span tree;
    raises ``RuntimeError`` on the first case where that diverges from
    the declared-tree aggregation."""
    checks = Table(
        "Figure 15 profiler cross-check (phase means, us)",
        ["case", "phase", "span-derived", "profiler", "rel err"])
    for case, record in runs:
        spans = record.tracer.spans
        agg = aggregate_ops(spans)[case.op]
        check_profile_point(
            checks, (case.label,), spans, case.op,
            {phase: agg.mean_phase_us(phase) for phase in
             (PHASE_LOOKUP, PHASE_LOOP_DETECT, PHASE_EXECUTION)})
    checks.add_note(f"declared-tree aggregation vs dynamic-tree "
                    f"re-derivation agree within {CHECK_TOLERANCE:.0%} "
                    f"for every case")
    return checks


def span_table(runs: Sequence[Run]) -> Table:
    """The figure's table from traced runs of its registry cases (the
    runs ``mantle-exp explain fig15 --view trace`` exports)."""
    table = Table(
        "Figure 15: mean per-phase latency (us, span-derived)",
        ["case", "system", "lookup", "loop detect", "execution", "total"])
    for case, record in runs:
        agg = aggregate_ops(record.tracer.spans).get(case.op)
        if agg is None or not agg.count:
            raise RuntimeError(
                f"no successful {case.op!r} spans for {case.system}")
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
def run(scale: str = "quick", check_profile: bool = False) -> List[Table]:
    runs = [(case, run_case(case, scale, ("tracer",)))
            for case in CASES["fig15"]]
    tables = [span_table(runs)]
    if check_profile:
        tables.append(check_profile_table(runs))
    return tables
