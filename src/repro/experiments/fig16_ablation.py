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
from repro.experiments.base import (Case, Claim, pick, register, rows_by,
                                    run_case)
from repro.experiments.whatif import predict, signed
from repro.sim.critpath import component_of
from repro.sim.host import CostOverrides


def _steps():
    """(label, cumulative config) in the paper's enabling order."""
    config = MantleConfig.base()
    yield "mantle-base", config
    for label, feature in (("+pathcache", "enable_path_cache"),
                           ("+raftlogbatch", "enable_raft_batching"),
                           ("+delta record", "enable_delta_records"),
                           ("+follower read", "enable_follower_read")):
        config = config.copy(**{feature: True})
        yield label, config


STEPS = tuple(_steps())

#: The measured workloads, by column name.
WORKLOADS = {"dirstat-e": ("dirstat", "exclusive"),
             "mkdir-e": ("mkdir", "exclusive"),
             "dirrename-s": ("dirrename", "shared")}

#: Every (step, workload) point, step-major.  Saturation matters here:
#: the path cache and follower reads pay off by multiplying the
#: IndexNode's CPU capacity, which only shows once the leader is CPU-bound
#: (the paper drives 512 mdtest threads).
CASES = tuple(Case(f"{label} {name}", "mantle", op, mode, clients=(112, 256),
                   items=(10, 20), config=config)
              for label, config in STEPS
              for name, (op, mode) in WORKLOADS.items())


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


def _whatif_note(record, component, case, scale):
    """Cross-check the final step's gate: predict 2x, rerun, compare."""
    overrides = CostOverrides.of(**{component: 2.0})
    prediction = predict(record, overrides, pick(scale, *case.clients))
    measured = run_case(case, scale, overrides=overrides).metrics
    baseline = record.crit.mean_latency_us
    predicted_frac = 1.0 - prediction.predicted_mean_us / baseline
    measured_frac = 1.0 - measured.mean_latency_us("dirstat") / baseline
    return (f"what-if cross-check on the final gate: {component}=2x "
            f"predicts {signed(predicted_frac)} dirstat-e latency (slack "
            f"floored by the bottleneck law); measured rerun "
            f"{signed(measured_frac)}")


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
    table = Table(
        "Figure 16: throughput normalised to Mantle-base",
        ["configuration"] + list(WORKLOADS) + ["dirstat-e gated by"])
    raw = Table("Figure 16 (raw): throughput (Kop/s)",
                ["configuration"] + list(WORKLOADS))
    baseline = {}
    final = None
    for i, (label, _config) in enumerate(STEPS):
        row_norm, row_raw, gate_label = [label], [label], "-"
        last = i == len(STEPS) - 1
        step = CASES[i * len(WORKLOADS):(i + 1) * len(WORKLOADS)]
        for name, case in zip(WORKLOADS, step):
            # The dirstat run is instrumented: tracing is pure
            # bookkeeping, so the throughput is bit-identical — one run
            # feeds both the column and the gating label (and, at the
            # final step, with telemetry, the what-if prediction).
            needs = ()
            if case.op == "dirstat":
                needs = ("tracer", "telemetry") if last else ("tracer",)
            record = run_case(case, scale, needs)
            if case.op == "dirstat":
                gate_label, component = _top_gate(record.crit)
                if last and component is not None:
                    final = (record, component, case)
            kops = record.metrics.throughput_kops()
            baseline.setdefault(name, kops)
            row_norm.append(round(ratio(kops, baseline[name]), 2))
            row_raw.append(round(kops, 2))
        table.add_row(*(row_norm + [gate_label]))
        raw.add_row(*row_raw)
    table.add_note("each row enables one more optimisation, cumulatively, "
                   "in the paper's order")
    table.add_note("gated by = top critical-path center of the dirstat-e "
                   "run (share of end-to-end latency it gates); each "
                   "optimisation removes the previous step's gate")
    if final is not None:
        table.add_note(_whatif_note(*final, scale))
    return [table, raw]
