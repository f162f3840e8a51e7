"""Figure 16: effects of individual optimisations (ablation).

Paper: starting from Mantle-base, '+pathcache' roughly doubles dirstat
throughput ('+follower read' improves it further); '+raftlogbatch' lifts
mkdir-e by amortising Raft commits; '+delta record' removes the
dirrename-s conflict storms.

The dirstat-e column additionally reports *what gated latency* at each
step (the top critical-path center, :mod:`repro.sim.critpath`) — the
ablation's mechanism made visible: each optimisation pays off by
removing the previous step's gate.  The final step's gate is
cross-checked with the what-if engine: predict a 2x speedup of that
center (the prediction ``mantle-exp whatif`` makes), rerun with the
override applied, and report both.
"""

from __future__ import annotations

import re
from typing import List

from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.experiments.base import (Claim, mdtest_metrics, mdtest_run, pick,
                                    register, rows_by)
from repro.experiments.whatif import predict
from repro.sim.critpath import component_of
from repro.sim.host import CostOverrides

#: (label, cumulative config overrides) in the paper's enabling order.
STEPS = (
    ("mantle-base", {}),
    ("+pathcache", {"enable_path_cache": True}),
    ("+raftlogbatch", {"enable_raft_batching": True}),
    ("+delta record", {"enable_delta_records": True}),
    ("+follower read", {"enable_follower_read": True}),
)

WORKLOADS = (("dirstat", "exclusive"), ("mkdir", "exclusive"),
             ("dirrename", "shared"))


def _config_for(step_index: int) -> MantleConfig:
    merged = {}
    for _label, overrides in STEPS[:step_index + 1]:
        merged.update(overrides)
    return MantleConfig.base().copy(**merged)


def _top_gate(crit):
    """Render the top gating center as ``frame kind@host (share)``."""
    ranked = crit.top_gating(1)
    if not ranked:
        return "-", None
    (host, frame, kind), _us = ranked[0]
    share = crit.shares()[(host, frame, kind)]
    where = f"@{host}" if host else ""
    return (f"{frame} {kind}{where} ({share:.0%})",
            component_of(host, frame, kind))


def _whatif_note(record, component, config, clients, items):
    """Cross-check the final step's gate: predict 2x, rerun, compare."""
    overrides = CostOverrides.of(**{component: 2.0})
    prediction = predict(record, overrides, clients)
    measured = mdtest_metrics(
        "mantle", "dirstat", mode="exclusive", clients=clients,
        items=items, config=config.copy(overrides=overrides))
    baseline = record.crit.mean_latency_us
    predicted_frac = 1.0 - prediction.predicted_mean_us / baseline
    measured_frac = 1.0 - measured.mean_latency_us("dirstat") / baseline
    return (f"what-if cross-check on the final gate: {component}=2x "
            f"predicts {-predicted_frac:+.1%} dirstat-e latency (slack "
            f"floored by the bottleneck law); measured rerun "
            f"{-measured_frac:+.1%}")


def claims(tables):
    step = rows_by(tables[0], "configuration")
    value = step["+pathcache"]["dirstat-e"]
    yield Claim("+pathcache dirstat-e > 1.3", value, value > 1.3)
    a, b = step["+raftlogbatch"]["mkdir-e"], step["+pathcache"]["mkdir-e"]
    yield Claim("mkdir-e: +raftlogbatch > 2x +pathcache", (a, b), a > 2 * b)
    a, b = (step[label]["dirrename-s"]
            for label in ("+delta record", "+raftlogbatch"))
    yield Claim("dirrename-s: +delta record > 3x +raftlogbatch", (a, b),
                a > 3 * b)
    a, b = step["+follower read"]["dirstat-e"], step["+pathcache"]["dirstat-e"]
    yield Claim("dirstat-e: +follower read > +pathcache", (a, b), a > b)
    deltas = [float(v) for note in tables[0].notes
              if note.startswith("what-if")
              for v in re.findall(r"([+-][0-9.]+)%", note)]
    yield Claim("what-if predicted delta within 2 points of the rerun",
                deltas, len(deltas) == 2 and abs(deltas[0] - deltas[1]) <= 2)


@register("fig16", "Effects of individual optimisations",
          "pathcache doubles dirstat; raft batching lifts mkdir-e; delta "
          "records rescue dirrename-s; follower read adds lookup headroom",
          claims)
def run(scale: str = "quick") -> List[Table]:
    # Saturation matters here: the path cache and follower reads pay off by
    # multiplying the IndexNode's CPU capacity, which only shows once the
    # leader is CPU-bound (the paper drives 512 mdtest threads).
    clients = pick(scale, 112, 256)
    items = pick(scale, 10, 20)
    table = Table(
        "Figure 16: throughput normalised to Mantle-base",
        ["configuration"] + [f"{op}{'-s' if mode == 'shared' else '-e'}"
                             for op, mode in WORKLOADS]
        + ["dirstat-e gated by"])
    raw = Table(
        "Figure 16 (raw): throughput (Kop/s)",
        ["configuration"] + [f"{op}{'-s' if mode == 'shared' else '-e'}"
                             for op, mode in WORKLOADS])
    baseline = {}
    final = None
    for step_index, (label, _overrides) in enumerate(STEPS):
        row_norm = [label]
        row_raw = [label]
        gate_label = "-"
        last = step_index == len(STEPS) - 1
        for op, mode in WORKLOADS:
            config = _config_for(step_index)
            # The dirstat run is instrumented: tracing is pure
            # bookkeeping, so the throughput is bit-identical — one run
            # feeds both the column and the gating label (and, at the
            # final step, with telemetry, the what-if prediction).
            needs = ()
            if op == "dirstat":
                needs = ("tracer", "telemetry") if last else ("tracer",)
            record = mdtest_run("mantle", op, needs, mode=mode, depth=10,
                                items=items, clients=clients, config=config)
            metrics = record.metrics
            if op == "dirstat":
                gate_label, component = _top_gate(record.crit)
                if last and component is not None:
                    final = (record, component)
            kops = metrics.throughput_kops()
            key = (op, mode)
            if step_index == 0:
                baseline[key] = kops
            row_norm.append(round(ratio(kops, baseline[key]), 2))
            row_raw.append(round(kops, 2))
        table.add_row(*(row_norm + [gate_label]))
        raw.add_row(*row_raw)
    table.add_note("each row enables one more optimisation, cumulatively, "
                   "in the paper's order")
    table.add_note("gated by = top critical-path center of the dirstat-e "
                   "run (share of end-to-end latency it gates); each "
                   "optimisation removes the previous step's gate")
    if final is not None:
        table.add_note(_whatif_note(*final, _config_for(len(STEPS) - 1),
                                    clients, items))
    return [table, raw]
