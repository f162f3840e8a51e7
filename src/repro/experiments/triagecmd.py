"""``mantle-exp triage`` — auto-triage of slow ops, phase by phase.

Reruns a figure's knee point (or a bare mdtest op) tail-instrumented:
a :class:`~repro.sim.trace.TailKeeper` retains the full span tree of
every op that errored or cleared its op type's adaptive duration
threshold, and windowed latency digests feed the phase segmentation in
:mod:`repro.bench.analyze`.  Then, per *anomalous* phase (saturated,
burst, or any phase whose verdict pinned a resource), the command

* pulls the tail exemplars that completed inside the phase window,
* runs the existing critical-path + blame machinery on just those ops
  (``build_critpath(root_where=...)``), gating on the same conservation
  identities ``critpath``/``blame`` use,
* prints one sentence per phase — "slow ops in phase X are gated by Y,
  blamed on Z" — backed by the full gating/blame tables, and
* writes a schema-validated ``triage_<target>_<system>.json``.

Every input is simulated-time telemetry and span durations, so the
export is byte-identical across runs.  The trace's
sample/keep/drop accounting is embedded in the payload and a loud
warning is printed whenever spans fell out of the ring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.bench.analyze import (
    PHASE_LABELS,
    Phase,
    anomalous_phases,
    primary_phase,
)
from repro.bench.report import Table
from repro.experiments.base import mdtest_metrics_triaged, pick
from repro.experiments.critpathcmd import CONSERVATION_TOLERANCE
from repro.experiments.exportutil import (
    default_out,
    ensure_valid,
    write_json_payload,
)
from repro.experiments.profilecmd import Case, resolve_case
from repro.sim.critpath import build_blame, build_critpath
from repro.sim.trace import CAT_OP, trace_stats

#: Gating centers / culprits listed per phase in the export.
EXPORT_TOP = 8


def dropped_warning(stats: Dict[str, int]) -> Optional[str]:
    """The loud line printed when spans fell out of the ring, or None."""
    if stats.get("dropped", 0) <= 0:
        return None
    return (f"!!! WARNING: {stats['dropped']} spans fell out of the trace "
            f"ring (finished {stats['finished']}, kept "
            f"{stats['kept_spans']} tail spans across "
            f"{stats['kept_roots']} trees); ring-based aggregates "
            f"under-count, tail exemplars are unaffected")


def _verdict_jsonable(verdict) -> Dict[str, Any]:
    return {
        "label": verdict.label,
        "scores": {key: round(value, 6)
                   for key, value in sorted(verdict.scores.items())},
        "hotspots": dict(sorted(verdict.hotspots.items())),
    }


def _phase_jsonable(phase: Phase) -> Dict[str, Any]:
    return {
        "label": phase.label,
        "window_us": [round(phase.window[0], 3), round(phase.window[1], 3)],
        "ops": phase.ops,
        "busy": round(phase.busy, 6),
        "rate_per_s": round(phase.rate_per_s, 3),
        "p99_us": round(phase.p99_us, 3),
        "verdict": _verdict_jsonable(phase.verdict),
    }


def _phase_exemplars(tracer, phase: Phase, is_last: bool) -> List[int]:
    """Root span ids of kept tail trees whose op completed in the phase.

    Completion time decides membership (that is when the latency digests
    record the op); the run's final phase is end-inclusive so the last
    op to finish is not orphaned.
    """
    lo, hi = phase.window
    out = []
    for tree in tracer.keeper.trees():
        root = tree[-1]
        if root.category != CAT_OP or root.end_us is None:
            continue
        if lo <= root.end_us < hi or (is_last and root.end_us == hi):
            out.append(root.span_id)
    return out


def _check_conservation(crit, blame, who: str) -> None:
    err = crit.conservation_error()
    if err > CONSERVATION_TOLERANCE:
        raise RuntimeError(
            f"{who}: critical-path segments cover {1 - err:.6%} of "
            f"exemplar latency (must telescope exactly)")
    err = blame.conservation_error()
    if err > CONSERVATION_TOLERANCE:
        raise RuntimeError(
            f"{who}: blame matrix covers {1 - err:.6%} of gated queue "
            f"time (occupant tags must decompose queue_res exactly)")


def _triage_phase(tracer, phase: Phase, is_last: bool,
                  who: str) -> Dict[str, Any]:
    """Fold one anomalous phase's tail exemplars into gating + blame."""
    exemplar_ids = _phase_exemplars(tracer, phase, is_last)
    entry: Dict[str, Any] = {
        "phase": phase.label,
        "window_us": [round(phase.window[0], 3),
                      round(phase.window[1], 3)],
        "verdict": _verdict_jsonable(phase.verdict),
        "exemplars": len(exemplar_ids),
        "gated_by": [],
        "blamed_on": [],
        "summary": (f"no tail exemplars completed in phase "
                    f"{phase.label!r}"),
    }
    if not exemplar_ids:
        return entry
    wanted = frozenset(exemplar_ids)
    crit = build_critpath(tracer.retained_spans(),
                          name=f"{who} {phase.label}",
                          root_where=lambda span: span.span_id in wanted)
    if crit.ops == 0:
        return entry
    blame = build_blame(crit)
    _check_conservation(crit, blame, f"{who} phase {phase.label}")
    total = max(crit.total_us, 1e-9)
    entry["gated_by"] = [
        {"host": host, "frame": frame, "kind": kind,
         "gated_us": round(us, 3), "share": round(us / total, 6)}
        for (host, frame, kind), us in crit.top_gating(EXPORT_TOP)]
    queue_total = max(blame.total_queue_us, 1e-9)
    entry["blamed_on"] = [
        {"culprit_op": c_op, "culprit_tenant": c_ten, "resource": res,
         "us": round(us, 3), "share": round(us / queue_total, 6)}
        for (c_op, c_ten, res), us in blame.top_culprits(EXPORT_TOP)]
    entry["critpath_conservation_error"] = crit.conservation_error()
    entry["blame_conservation_error"] = blame.conservation_error()
    entry["mean_exemplar_latency_us"] = round(crit.mean_latency_us, 3)
    entry["queue_share"] = round(blame.queue_share, 6)
    (g_host, g_frame, g_kind), g_us = crit.top_gating(1)[0]
    gate = f"{g_kind}@{g_host}" if g_host else g_kind
    culprits = blame.top_culprits(1)
    if culprits:
        (c_op, c_ten, c_res), _c_us = culprits[0]
        blamed = c_op + (f"/{c_ten}" if c_ten else "") + f" at {c_res}"
    else:
        blamed = "(nothing queued)"
    entry["summary"] = (
        f"slow ops in phase {phase.label!r} are gated by {gate} in "
        f"{g_frame} ({g_us / total:.0%} of exemplar latency), blamed "
        f"on {blamed}")
    return entry


def triage_point(system: str, target: str, case: Case, scale: str,
                 clients: Optional[int] = None,
                 items: Optional[int] = None,
                 out_base: str = "") -> Dict[str, Any]:
    """Run one system's knee point tail-instrumented; triage + export."""
    metrics, tracer, telemetry, phases = mdtest_metrics_triaged(
        system, case.op, mode=case.mode,
        clients=clients or pick(scale, *case.clients),
        items=items or pick(scale, *case.items))
    who = f"{system} {case.op}"
    stats = trace_stats(tracer)
    anomalous = anomalous_phases(phases)
    last_window = phases[-1].window if phases else (0.0, 0.0)
    triage = [_triage_phase(tracer, phase, phase.window == last_window, who)
              for phase in anomalous]
    primary = primary_phase(phases)
    payload: Dict[str, Any] = {
        "name": who,
        "system": system,
        "target": target,
        "op": case.op,
        "trace_stats": stats,
        "phases": [_phase_jsonable(phase) for phase in phases],
        "primary_phase": primary.label if primary is not None else None,
        "triage": triage,
    }
    base = out_base or default_out("triage", target)
    path = f"{base}_{system}.json"
    ensure_valid(validate_triage(payload), path)
    write_json_payload(path, payload)
    return {
        "system": system,
        "metrics": metrics,
        "tracer": tracer,
        "telemetry": telemetry,
        "phases": phases,
        "triage": triage,
        "stats": stats,
        "path": path,
        "payload": payload,
    }


def validate_triage(payload: Any) -> List[str]:
    """Schema-check a triage payload; returns a list of problems.

    Carries the load-bearing invariants into the export: phase labels
    are from the known set with ordered windows, and every triaged
    phase's conservation errors stay inside the critpath tolerance.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    for field in ("name", "system", "target", "op"):
        if not isinstance(payload.get(field), str) or not payload[field]:
            problems.append(f"missing {field}")
    stats = payload.get("trace_stats")
    if not isinstance(stats, dict):
        problems.append("missing trace_stats object")
    else:
        for field in ("started", "finished", "dropped", "sample_every",
                      "kept_roots", "kept_errors", "kept_spans",
                      "kept_evicted_roots"):
            value = stats.get(field)
            if not isinstance(value, int) or value < 0:
                problems.append(f"trace_stats.{field} must be a "
                                f"non-negative int")
    phases = payload.get("phases")
    if not isinstance(phases, list) or not phases:
        problems.append("missing phases array")
        phases = []
    for i, phase in enumerate(phases):
        where = f"phases[{i}]"
        if not isinstance(phase, dict):
            problems.append(f"{where}: not an object")
            continue
        if phase.get("label") not in PHASE_LABELS:
            problems.append(f"{where}: unknown label {phase.get('label')!r}")
        window = phase.get("window_us")
        if not (isinstance(window, list) and len(window) == 2
                and all(isinstance(v, (int, float)) for v in window)
                and window[0] <= window[1]):
            problems.append(f"{where}: bad window_us {window!r}")
        if not isinstance(phase.get("ops"), int) or phase["ops"] < 0:
            problems.append(f"{where}: ops must be a non-negative int")
        for field in ("busy", "rate_per_s", "p99_us"):
            value = phase.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: bad {field} {value!r}")
        verdict = phase.get("verdict")
        if not (isinstance(verdict, dict)
                and isinstance(verdict.get("label"), str)
                and isinstance(verdict.get("scores"), dict)):
            problems.append(f"{where}: bad verdict")
    primary = payload.get("primary_phase")
    if primary is not None and primary not in PHASE_LABELS:
        problems.append(f"unknown primary_phase {primary!r}")
    triage = payload.get("triage")
    if not isinstance(triage, list):
        problems.append("missing triage array")
        triage = []
    for i, entry in enumerate(triage):
        where = f"triage[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if entry.get("phase") not in PHASE_LABELS:
            problems.append(f"{where}: unknown phase {entry.get('phase')!r}")
        exemplars = entry.get("exemplars")
        if not isinstance(exemplars, int) or exemplars < 0:
            problems.append(f"{where}: exemplars must be a non-negative int")
        if not isinstance(entry.get("summary"), str) or not entry["summary"]:
            problems.append(f"{where}: missing summary")
        for field in ("gated_by", "blamed_on"):
            if not isinstance(entry.get(field), list):
                problems.append(f"{where}: missing {field} array")
        if entry.get("gated_by"):
            for field in ("critpath_conservation_error",
                          "blame_conservation_error"):
                value = entry.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {field} {value!r}")
                elif value > CONSERVATION_TOLERANCE:
                    problems.append(
                        f"{where}: {field} {value!r} exceeds the "
                        f"{CONSERVATION_TOLERANCE} conservation tolerance")
            share_sum = 0.0
            for j, center in enumerate(entry["gated_by"]):
                if not isinstance(center, dict) or \
                        not isinstance(center.get("share"), (int, float)):
                    problems.append(f"{where}: gated_by[{j}] malformed")
                    continue
                share_sum += center["share"]
            if share_sum > 1.0 + 1e-3:
                problems.append(f"{where}: gated_by shares sum to "
                                f"{share_sum:.6f} > 1")
    return problems


# ---------------------------------------------------------------------------
# Tables + entry point.
# ---------------------------------------------------------------------------


def phase_table(artifact: Dict[str, Any]) -> Table:
    phases: List[Phase] = artifact["phases"]
    table = Table(
        f"{artifact['system']}: phases ({len(phases)} segments)",
        ["phase", "window ms", "ops", "p99 us", "busy", "verdict"])
    for phase in phases:
        lo, hi = phase.window
        table.add_row(
            phase.label, f"[{lo / 1e3:.1f}, {hi / 1e3:.1f})", phase.ops,
            round(phase.p99_us, 1), f"{phase.busy:.2f}",
            phase.verdict.describe())
    table.add_note(
        "change-point segmentation of the busy-fraction/digest timelines; "
        "each phase is scored independently (rpc score is run-global)")
    return table


def triage_table(artifact: Dict[str, Any], top: int) -> Table:
    table = Table(
        f"{artifact['system']}: tail triage per anomalous phase",
        ["phase", "exemplars", "gated by", "share", "blamed on", "share"])
    for entry in artifact["triage"]:
        gates = entry["gated_by"][:top]
        culprits = entry["blamed_on"][:top]
        for i in range(max(len(gates), len(culprits), 1)):
            gate = gates[i] if i < len(gates) else None
            culprit = culprits[i] if i < len(culprits) else None
            gate_who = ""
            gate_share = ""
            if gate is not None:
                where = f"@{gate['host']}" if gate["host"] else ""
                gate_who = f"{gate['kind']}{where} in {gate['frame']}"
                gate_share = f"{gate['share']:.1%}"
            culprit_who = ""
            culprit_share = ""
            if culprit is not None:
                tenant = culprit["culprit_tenant"]
                culprit_who = (culprit["culprit_op"]
                               + (f"/{tenant}" if tenant else "")
                               + f" at {culprit['resource']}")
                culprit_share = f"{culprit['share']:.1%}"
            table.add_row(
                entry["phase"] if i == 0 else "",
                entry["exemplars"] if i == 0 else "",
                gate_who, gate_share, culprit_who, culprit_share)
    table.add_note(
        "exemplars are tail-kept op trees completing inside the phase "
        "window; gating shares cover 100% of exemplar latency, blame "
        "shares cover 100% of their queued time")
    return table


def run_triage(target: str, scale: str = "quick", out_base: str = "",
               systems: Optional[List[str]] = None,
               clients: Optional[int] = None,
               items: Optional[int] = None,
               top: int = 12) -> Tuple[List[Table], List[str], List[Dict]]:
    """Triage ``target``; returns (tables, summary lines, artifacts)."""
    case = resolve_case(target)
    artifacts = [
        triage_point(system, target, case, scale, clients=clients,
                     items=items, out_base=out_base)
        for system in (systems or list(case.systems))
    ]
    tables: List[Table] = []
    lines: List[str] = []
    for artifact in artifacts:
        tables.append(phase_table(artifact))
        if artifact["triage"]:
            tables.append(triage_table(artifact, top))
        warning = dropped_warning(artifact["stats"])
        if warning:
            lines.append(warning)
        for entry in artifact["triage"]:
            lines.append(f"{artifact['system']}: {entry['summary']}")
        if not artifact["triage"]:
            lines.append(f"{artifact['system']}: no anomalous phases — "
                         f"nothing to triage")
        lines.append(f"(wrote {artifact['path']})")
        lines.append("")
    return tables, lines, artifacts
