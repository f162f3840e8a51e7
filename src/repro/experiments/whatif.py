"""``mantle-exp whatif`` — the one explanation verb that reruns.

The validated virtual-speedup loop: predict the effect of a
``--speedup component=FACTORx`` set from the critical-path slack of one
instrumented run (the same run record ``mantle-exp explain`` folds), then
*rerun the simulation with the override actually applied* (to the cost
model the system is built with, :func:`~repro.experiments.base.run_case`)
and print predicted vs measured with the prediction error.  The
prediction is the slack model floored by the queueing-aware bottleneck
law, so it equals the slack model wherever the floor does not bind (knee
points) and removes its open-loop optimism deep in saturation.
``--max-error`` turns the comparison into a gate (CI runs it), with an
absolute-delta floor so a correctly-predicted "this changes nothing" also
passes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.report import Table
from repro.experiments.base import RunRecord, pick, run_case
from repro.experiments.explain import resolve_cases
from repro.sim.critpath import CorrectedPrediction, predict_speedup_corrected
from repro.sim.host import CostOverrides, parse_speedup_args

#: ``--max-error``: predicted and measured deltas within this many
#: percentage points of baseline latency count as "both approximately
#: nothing" even when the relative error is undefined (off-path probes).
DELTA_FLOOR_FRAC = 0.01

@dataclasses.dataclass(frozen=True)
class WhatIfResult:
    """Predicted-vs-measured outcome of one virtual speedup.

    ``predicted_mean_us`` is the one prediction the gate judges: the
    first-order slack model (``slack_mean_us``, open-loop) floored by the
    closed-loop bottleneck law (``bottleneck_mean_us`` at
    ``bottleneck_station``).
    """

    system: str
    op: str
    overrides: CostOverrides
    baseline_mean_us: float
    predicted_mean_us: float
    measured_mean_us: float
    baseline_kops: float
    measured_kops: float
    matched_us_per_op: Dict[str, float]
    slack_mean_us: float
    bottleneck_mean_us: float = 0.0
    bottleneck_station: str = ""

    def _delta_frac(self, mean_us: float) -> float:
        if self.baseline_mean_us <= 0.0:
            return 0.0
        return 1.0 - mean_us / self.baseline_mean_us

    @property
    def predicted_delta_frac(self) -> float:
        return self._delta_frac(self.predicted_mean_us)

    @property
    def slack_delta_frac(self) -> float:
        return self._delta_frac(self.slack_mean_us)

    @property
    def measured_delta_frac(self) -> float:
        return self._delta_frac(self.measured_mean_us)

    @property
    def error_frac(self) -> float:
        """|predicted - measured| relative to the measured delta."""
        measured = abs(self.measured_delta_frac)
        if measured <= 0.0:
            return 0.0 if abs(self.predicted_delta_frac) <= 0.0 \
                else float("inf")
        return abs(self.predicted_delta_frac
                   - self.measured_delta_frac) / measured

    def within(self, max_error: float) -> bool:
        """Prediction acceptable: relative error inside ``max_error``, or
        both deltas under the :data:`DELTA_FLOOR_FRAC` floor (a correct
        "this override buys nothing" prediction)."""
        if abs(self.predicted_delta_frac) < DELTA_FLOOR_FRAC and \
                abs(self.measured_delta_frac) < DELTA_FLOOR_FRAC:
            return True
        return self.error_frac <= max_error

    @property
    def phantom(self) -> str:
        """What an infinite error means: the change the prediction claims
        and the rerun does not show."""
        change = "gain" if self.predicted_delta_frac > 0.0 else "slowdown"
        return f"a {change} where measurement shows none"

    def failure_report(self, max_error: float) -> str:
        """The ``--max-error`` verdict as one line: predicted vs measured
        delta and the error between them."""
        err = self.error_frac
        err_text = (f"inf (predicted {self.phantom})"
                    if err == float("inf")
                    else f"{err:.1%} of the measured delta")
        verdict = "within" if self.within(max_error) else "EXCEEDS"
        return (f"predicted {signed(self.predicted_delta_frac)} vs measured "
                f"{signed(self.measured_delta_frac)} -> error {err_text}; "
                f"{verdict} --max-error {max_error:.0%}")


def signed(delta_frac: float) -> str:
    """A latency delta as a signed change: ``-2.1%`` faster, ``+2.1%``
    slower (fig16's what-if note prints the same way)."""
    return f"{-delta_frac:+.1%}"


def predict(record: RunRecord, overrides: CostOverrides,
            clients: int) -> CorrectedPrediction:
    """The one what-if prediction (slack floored by the bottleneck law) from
    a traced, telemetered run of ``clients``; fig16's note makes it too."""
    return predict_speedup_corrected(record.crit, overrides, record.profile,
                                     record.telemetry, clients)


def run_whatif(target: str, speedups: Sequence[str],
               system: str = "mantle", scale: str = "quick",
               clients: Optional[int] = None,
               items: Optional[int] = None,
               ) -> Tuple[List[Table], WhatIfResult]:
    """Predict, rerun, compare.  Returns (tables, result)."""
    overrides = parse_speedup_args(speedups)
    if not overrides:
        raise ValueError("whatif needs at least one --speedup")
    case = next(case for case in resolve_cases(target, [system])
                if not case.contrast)
    clients = clients or pick(scale, *case.clients)
    items = items or pick(scale, *case.items)

    record = run_case(case, scale, ("tracer", "telemetry"), clients=clients,
                      items=items)
    metrics, crit = record.metrics, record.crit
    prediction = predict(record, overrides, clients)
    bottleneck = prediction.bottleneck()
    # Measured leg: the same point, uninstrumented, overrides applied.
    measured = run_case(case, scale, clients=clients, items=items,
                        overrides=overrides).metrics
    result = WhatIfResult(
        system=system, op=case.op, overrides=overrides,
        baseline_mean_us=crit.mean_latency_us,
        predicted_mean_us=prediction.predicted_mean_us,
        measured_mean_us=measured.mean_latency_us(case.op),
        baseline_kops=metrics.throughput_kops(case.op),
        measured_kops=measured.throughput_kops(case.op),
        matched_us_per_op=prediction.slack.matched_us_per_op,
        slack_mean_us=prediction.slack.predicted_mean_us,
        bottleneck_mean_us=prediction.bottleneck_mean_us,
        bottleneck_station=(f"{bottleneck.host}/{bottleneck.resource}"
                            if bottleneck is not None else ""))

    knobs = ", ".join(f"{component}={factor:g}x"
                      for component, factor in overrides.speedups)
    table = Table(
        f"what-if {knobs} on {target}/{system} ({case.op}, "
        f"{clients} clients)",
        ["metric", "baseline", "slack", "predicted", "measured"])
    table.add_row("mean latency (us/op)",
                  round(result.baseline_mean_us, 1),
                  round(result.slack_mean_us, 1),
                  round(result.predicted_mean_us, 1),
                  round(result.measured_mean_us, 1))
    table.add_row("latency delta", "-",
                  signed(result.slack_delta_frac),
                  signed(result.predicted_delta_frac),
                  signed(result.measured_delta_frac))
    table.add_row("throughput (Kop/s)",
                  round(result.baseline_kops, 2), "-", "-",
                  round(result.measured_kops, 2))
    for component, us in sorted(result.matched_us_per_op.items()):
        table.add_row(f"gated by {component} (us/op)",
                      round(us, 1), "-", "-", "-")
    if result.error_frac == float("inf"):
        table.add_note(f"prediction: {result.phantom}")
    else:
        table.add_note(f"prediction error {result.error_frac:.1%} of the "
                       "measured delta")
    if bottleneck is not None:
        table.add_note(
            f"bottleneck station {result.bottleneck_station}: "
            f"{bottleneck.utilization:.0%} utilized, mean queue "
            f"{bottleneck.mean_queue:.1f}; closed-loop floor "
            f"{result.bottleneck_mean_us:.1f} us/op "
            f"({'binding' if prediction.bound_binding else 'not binding'} "
            f"vs slack)")
    table.add_note("slack = first-order critical-path model (open-loop); "
                   "predicted = slack floored by the bottleneck law "
                   "clients x max per-op demand; measured = full rerun "
                   "with the override applied to the cost model")
    return [table], result
