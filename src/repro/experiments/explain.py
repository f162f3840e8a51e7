"""``mantle-exp explain <target> --view a,b,c`` — one instrumented run,
every explanation a fold over it.

A *target* names an ordered set of :class:`Case` s in the one registry
(:data:`CASES`): a figure's knee points (``fig12``/``fig14``/``fig19``),
the traced exhibits (``fig15``/``table1``), the two-namespace
``multitenant`` interference scenario, or any bare mdtest op.  Each case
runs **once** per invocation under the union rig its requested views need
(:func:`repro.experiments.base.instrumented_run`), and each *view* is a
pure fold ``run records -> (tables, lines, exports)``:

========= ================================================================
trace     Perfetto/Chrome-trace JSON of every case, the span-tree
          breakdown, span-vs-``MetricSet`` latency and RPC agreement
          within 1%
telemetry saturation verdicts, per-host timelines, the primary case's
          windowed series as CSV + JSON
profile   cost-kind split and top self-time centers per system,
          flamegraph.pl + speedscope exports, CPU reconciled against
          telemetry; ``--diff A B`` aligns two systems per (frame, kind)
critpath  what gated client latency: gating centers, on- vs off-path
          cost, one exemplar path; shares conserve end-to-end latency
blame     who delayed whom: gated queue time attributed to the occupant
          op/tenant per resource; conserves the queue segments exactly
triage    change-point phases, then critpath + blame over each anomalous
          phase's tail-kept exemplars
========= ================================================================

Every export goes through :func:`repro.experiments.exportutil.write_export`
(default name ``<view>_<target>[_<system>].<ext>`` under ``--out``,
validate, write), after the views' own invariant gates
(:func:`check_conservation`, the reconcile and agreement tolerances) have
passed.  All inputs are simulated-time bookkeeping, so exports are
byte-identical across runs, schedulers and — because the span ring does
not depend on the tail keeper or on telemetry — across which other views
shared the run.  The one exception to sharing: ``telemetry`` keeps a finer
window than ``triage`` segments on, so those two get separate runs.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.bench.analyze import (
    PHASE_LABELS,
    Phase,
    anomalous_phases,
    hit_ratio_series,
    latency_p99_series,
    primary_phase,
    utilization_series,
)
from repro.bench.cluster import SYSTEMS
from repro.bench.report import Table, latency_summary_table
from repro.core.config import MantleConfig
from repro.core.multitenant import MantleDeployment
from repro.experiments.base import (
    RunRecord,
    instrumented_run,
    mdtest_run,
    pick,
)
from repro.experiments.exportutil import (
    write_export,
    write_json_payload,
    write_lines,
)
from repro.ops import make_op
from repro.sim.critpath import (
    build_critpath,
    center_rows,
    component_of,
    contrast_with_profile,
    culprit_rows,
    render_blame_exemplar,
    to_blame_payload,
    to_critpath_payload,
    validate_blame,
    validate_critpath,
)
from repro.sim.profile import (
    diff_profiles,
    to_folded,
    to_speedscope,
    validate_folded,
    validate_speedscope,
)
from repro.sim.stats import MetricSet
from repro.sim.telemetry import sparkline, validate_rows
from repro.sim.trace import (
    NONEMPTY,
    SpanIndex,
    aggregate_ops,
    category_summary,
    check_shape,
    export_chrome_trace,
    shape_items,
    trace_stats,
    validate_chrome_trace,
)
from repro.workloads.mdtest import OPS

#: Max relative disagreement between span-derived and metric-derived
#: values in the ``trace`` view (observed error is 0).
AGREEMENT_TOLERANCE = 0.01

#: Max relative disagreement between profiler CPU and telemetry busy
#: counters (they share charge sites; observed error is exactly 0).
RECONCILE_TOLERANCE = 0.01

#: Max relative error of sum(gated) vs sum(op durations), and of blamed
#: vs gated queue time — both identities are exact, so anything past
#: float dust is an extraction bug.
CONSERVATION_TOLERANCE = 1e-6

#: Sparkline width: one character per telemetry window, capped here.
TIMELINE_WIDTH = 60

#: The ``telemetry`` view's own (quick, full) window — short quick-scale
#: runs need a finer one than the default so timelines have columns.
TELEMETRY_WINDOW_US = (1_000.0, 10_000.0)

#: Gating centers / culprits listed per phase in the triage export.
EXPORT_TOP = 8


# ---------------------------------------------------------------------------
# The case registry.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Case:
    """One instrumented sweep point: a system, an op, its budgets."""

    label: str
    system: str
    op: str
    mode: str = "exclusive"
    #: (quick, full) budgets — the owning figure's own.
    clients: Tuple[int, int] = (32, 128)
    items: Tuple[int, int] = (10, 30)
    #: A non-default deployment (mantle only).
    config: Optional[MantleConfig] = None
    #: A contrasting point only the whole-target views (trace, telemetry)
    #: run; per-system views export one file per system and skip it.
    contrast: bool = False


def _knee(systems: Sequence[str], op: str, suffix: str = "",
          **budgets) -> Tuple[Case, ...]:
    return tuple(Case(f"{system} {op}{suffix}", system, op, **budgets)
                 for system in systems)


def _suffix(mode: str) -> str:
    return "-s" if mode == "shared" else "-e"


#: The four directory-modification cases of Figs. 14/15.
DIRMOD_CASES = (("mkdir", "exclusive"), ("mkdir", "shared"),
                ("dirrename", "exclusive"), ("dirrename", "shared"))

#: The one-case target of the two-namespace interference scenario.
MULTITENANT = "multitenant"

#: target -> ordered cases.  Whole-target views run them all and export
#: the first; per-system views run the non-contrast ones.
CASES: Dict[str, Tuple[Case, ...]] = {
    # Fig 12 knee: stat scaling — baselines pin their shard servers' CPU
    # on per-level resolution RPCs, Mantle resolves server-side in one hop.
    "fig12": _knee(("tectonic", "mantle", "infinifs"), "objstat",
                   clients=(64, 192), items=(12, 30)),
    # Fig 14 knee: shared-directory mkdir flips baselines from hardware
    # saturation to transaction conflicts.
    "fig14": _knee(("tectonic", "mantle"), "mkdir", "-s", mode="shared",
                   clients=(64, 160), items=(10, 24)),
    # Fig 19b knee at the top client count: create rides the TafDB commit
    # fsync floor; leader-only objstat (the contrast) saturates the
    # leader IndexNode's CPU.
    "fig19": (
        Case("objstat leader-only", "mantle", "objstat",
             clients=(320, 640), items=(10, 20),
             config=MantleConfig(enable_follower_read=False), contrast=True),
        Case("create", "mantle", "create",
             clients=(320, 640), items=(10, 20)),
    ),
    "fig15": tuple(
        Case(f"{op}{_suffix(mode)}/{system}", system, op, mode=mode,
             clients=(48, 128), items=(8, 20))
        for op, mode in DIRMOD_CASES for system in SYSTEMS),
    "table1": tuple(
        Case(f"objstat/{system}", system, "objstat",
             clients=(32, 96), items=(10, 24)) for system in SYSTEMS),
    # A "storm" namespace floods shared-directory mkdirs next to a light
    # "victim" doing objstats, over one shared TafDB and a co-located
    # IndexNode pool (the §7.2 noisy-neighbour setup); budgets are the
    # storm's, the victim's are _MT_VICTIM_*.
    MULTITENANT: (Case("multitenant storm+victim", MULTITENANT,
                       "storm+victim", clients=(48, 96), items=(6, 10)),),
}

_MT_VICTIM_CLIENTS = (6, 12)
_MT_VICTIM_OPS = (24, 48)


def targets() -> List[str]:
    """Every accepted target: registered figures/scenarios, then every op
    :mod:`repro.workloads.mdtest` runs."""
    return sorted(CASES) + list(OPS)


def resolve_cases(target: str,
                  systems: Optional[Sequence[str]] = None) -> List[Case]:
    """The ordered cases of ``target``, narrowed and ordered by ``systems``.

    A bare op resolves to that op on ``systems`` (default mantle and
    tectonic).  A system a figure has no case for borrows the figure's
    knee point.  Raises ``ValueError`` for an unknown target.
    """
    if target in OPS:
        return [Case(f"{system} {target}", system, target)
                for system in (systems or ("mantle", "tectonic"))]
    if target not in CASES:
        raise ValueError(f"nothing to explain for {target!r}; choose from "
                         + ", ".join(targets()))
    cases = list(CASES[target])
    if not systems or target == MULTITENANT:
        return cases
    knee = next(case for case in cases if not case.contrast)
    out: List[Case] = []
    for system in systems:
        mine = [case for case in cases if case.system == system]
        out.extend(mine or [dataclasses.replace(
            knee, system=system, config=None,
            label=knee.label.replace(knee.system, system))])
    return out


def _multitenant_build():
    config = MantleConfig(num_db_servers=3, num_db_shards=12, db_cores=4,
                          num_proxies=2, proxy_cores=16, index_cores=4)
    deployment = MantleDeployment(config, shared_index_pool=3)
    storm = deployment.create_namespace("storm", colocate=True)
    victim = deployment.create_namespace("victim", colocate=True)
    storm.bulk_mkdir("/hot")
    victim.bulk_mkdir("/w")
    victim.bulk_create("/w/obj")
    return deployment


def _multitenant_drive(deployment, scale: str, storm_clients: int,
                       storm_items: int) -> MetricSet:
    """Both tenants' ops carry their namespace as the tenant label, so
    the blame matrix shows how much of the victim's queueing the storm
    caused — the number §7.2's leader rebalancing exists to shrink."""
    sim = deployment.sim
    metrics = MetricSet()
    victim_ops = pick(scale, *_MT_VICTIM_OPS)

    def client(namespace, op: str, paths):
        for path in paths:
            yield from namespace.perform(make_op(op, path), None, metrics)

    storm, victim = deployment.namespace("storm"), \
        deployment.namespace("victim")
    procs = [sim.process(client(storm, "mkdir", [f"/hot/c{i}k{k}"
                                                 for k in range(storm_items)]))
             for i in range(storm_clients)]
    procs += [sim.process(client(victim, "objstat", ["/w/obj"] * victim_ops))
              for _ in range(pick(scale, *_MT_VICTIM_CLIENTS))]
    metrics.started_at = sim.now
    sim.run_until(sim.all_of(procs))
    metrics.finished_at = sim.now
    return metrics


def run_case(case: Case, scale: str, needs: Sequence[str],
             clients: Optional[int] = None, items: Optional[int] = None,
             window_us: Optional[float] = None) -> RunRecord:
    """One instrumented run of ``case`` at ``scale`` (budget overrides as
    on the command line)."""
    clients = clients or pick(scale, *case.clients)
    items = items or pick(scale, *case.items)
    if case.system == MULTITENANT:
        return instrumented_run(
            _multitenant_build,
            lambda deployment: _multitenant_drive(deployment, scale,
                                                  clients, items),
            needs, window_us=window_us, name=case.label)
    return mdtest_run(case.system, case.op, needs, mode=case.mode,
                      clients=clients, items=items, window_us=window_us,
                      config=case.config)


# ---------------------------------------------------------------------------
# What every view shares.
# ---------------------------------------------------------------------------

Run = Tuple[Case, RunRecord]


@dataclasses.dataclass(frozen=True)
class Request:
    """What one ``explain`` invocation asked for, as the folds see it."""

    target: str
    scale: str = "quick"
    top: int = 12
    diff: Optional[Tuple[str, str]] = None


@dataclasses.dataclass(frozen=True)
class Export:
    """One file a view wants written (see ``exportutil.write_export``)."""

    system: Optional[str]
    suffix: str
    payload: Any
    validate: Callable[[Any], Sequence[str]]
    write: Callable[[str, Any], Any] = write_json_payload


@dataclasses.dataclass
class Folded:
    """A view's output: result tables, free-text lines (warnings
    included) and the files to write."""

    tables: List[Table] = dataclasses.field(default_factory=list)
    lines: List[str] = dataclasses.field(default_factory=list)
    exports: List[Export] = dataclasses.field(default_factory=list)


def check_conservation(crit, who: str = "") -> None:
    """The one conservation gate: path segments telescope to the folded
    ops' latency and blamed microseconds cover the gated queue segments
    exactly.  Raises ``RuntimeError`` otherwise."""
    err = crit.conservation_error()
    if err > CONSERVATION_TOLERANCE:
        raise RuntimeError(
            f"{who}: critical-path segments cover {1 - err:.6%} of "
            f"end-to-end latency (must telescope exactly)")
    err = crit.blame.conservation_error()
    if err > CONSERVATION_TOLERANCE:
        raise RuntimeError(
            f"{who}: blame matrix covers {1 - err:.6%} of gated queue "
            f"time (occupant tags must decompose queue_res exactly)")


def dropped_warning(stats: Dict[str, int]) -> Optional[str]:
    """The loud line printed when spans fell out of the ring, or None."""
    if stats.get("dropped", 0) <= 0:
        return None
    return (f"!!! WARNING: {stats['dropped']} spans fell out of the trace "
            f"ring (finished {stats['finished']}, kept "
            f"{stats['kept_spans']} tail spans across "
            f"{stats['kept_roots']} trees); ring-based aggregates "
            f"under-count, tail exemplars are unaffected")


# ---------------------------------------------------------------------------
# trace: Perfetto export + span-vs-metrics agreement.
# ---------------------------------------------------------------------------

def breakdown_table(runs: Sequence[Run]) -> Table:
    """Per-case span-tree summary: counts and summed time per category."""
    table = Table(
        "Span-tree breakdown per case",
        ["case", "spans", "dropped", "category", "count", "total us"])
    for case, record in runs:
        tracer = record.tracer
        summary = category_summary(tracer.spans)
        for i, category in enumerate(sorted(summary)):
            count, total_us = summary[category]
            table.add_row(case.label if i == 0 else "",
                          len(tracer.spans) if i == 0 else "",
                          tracer.dropped if i == 0 else "",
                          category, count, round(total_us, 1))
    return table


def agreement_table(runs: Sequence[Run]) -> Tuple[Table, float]:
    """Cross-validate span-derived vs MetricSet-derived numbers.

    Returns the comparison table and the worst relative error observed
    over mean latency and mean RPC count (phases are recorded only as
    spans, so there is nothing to compare them against).
    """
    table = Table(
        "Span-derived vs metric-derived agreement",
        ["case", "quantity", "spans", "metrics", "rel err"])
    worst = 0.0
    for case, record in runs:
        metrics = record.metrics
        agg = aggregate_ops(record.index).get(case.op)
        if agg is None:
            raise RuntimeError(f"no {case.op!r} spans for case {case.label}")
        pairs = [("mean latency us", agg.mean_latency_us,
                  metrics.mean_latency_us(case.op)),
                 ("mean rpcs", agg.mean_rpcs, metrics.mean_rpcs(case.op))]
        for quantity, from_spans, from_metrics in pairs:
            err = abs(from_spans - from_metrics) / \
                max(abs(from_metrics), 1e-9)
            worst = max(worst, err)
            table.add_row(case.label, quantity, round(from_spans, 3),
                          round(from_metrics, 3), f"{err:.2%}")
    return table, worst


def fold_trace(request: Request, runs: Sequence[Run]) -> Folded:
    stats = {case.label: trace_stats(record.tracer)
             for case, record in runs}
    payload = export_chrome_trace(
        [(case.label, record.tracer.spans) for case, record in runs],
        stats=stats)
    agreement, worst = agreement_table(runs)
    agreement.add_note(f"worst relative error {worst:.2%} "
                       f"(tolerance {AGREEMENT_TOLERANCE:.0%})")
    if worst > AGREEMENT_TOLERANCE:
        raise RuntimeError(
            f"span-derived numbers diverge from metrics by {worst:.2%} "
            f"(> {AGREEMENT_TOLERANCE:.0%})")
    summary = breakdown_table(runs)
    summary.add_note(f"the Chrome trace has {len(payload['traceEvents'])} "
                     "events; open it with https://ui.perfetto.dev")
    warnings = [
        f"!!! WARNING: case {label} dropped {s['dropped']} of "
        f"{s['started']} spans from the trace ring — the breakdown above "
        f"under-counts; see the export's traceStats key"
        for label, s in sorted(stats.items()) if s["dropped"] > 0]
    return Folded([summary, agreement], warnings,
                  [Export(None, ".json", payload, validate_chrome_trace)])


# ---------------------------------------------------------------------------
# telemetry: saturation verdicts, timelines, windowed series export.
# ---------------------------------------------------------------------------

def _timeline(label: str, values: List[float], unit_cap: bool) -> str:
    if not values:
        return f"  {label:<24} (no samples)"
    spark = sparkline(values, hi=1.0 if unit_cap else None,
                      width=TIMELINE_WIDTH)
    return f"  {label:<24} |{spark}| peak {max(values):.2f}"


def timeline_lines(label: str, telemetry, verdict) -> List[str]:
    """Terminal timelines for one case: CPU per host, cache hit-ratio,
    in-flight RPC level, p99 op latency (from the merged windowed
    digests).  One sparkline column per telemetry window."""
    lines = [f"-- {label}: {verdict.describe()}",
             f"   steady window {verdict.window[0]:.0f}-"
             f"{verdict.window[1]:.0f} us, "
             f"telemetry window {telemetry.window_us:.0f} us"]
    for host in telemetry.hosts("host.cpu_busy_us"):
        series = utilization_series(telemetry.counter("host.cpu_busy_us",
                                                      host))
        lines.append(_timeline(f"cpu {host}", [v for _, v in series], True))
    hits = hit_ratio_series(telemetry)
    if hits:
        lines.append(_timeline("index cache hit-ratio",
                               [v for _, v in hits], True))
    in_flight = telemetry.find("rpc.in_flight")
    if in_flight is not None:
        lines.append(_timeline(
            "rpcs in flight",
            [mean for _, mean, _ in in_flight.series()], False))
    p99s = latency_p99_series(telemetry)
    if p99s:
        lines.append(_timeline("op latency p99 us",
                               [v for _, v in p99s], False))
    return lines


def fold_telemetry(request: Request, runs: Sequence[Run]) -> Folded:
    verdicts = Table(
        f"{request.target} saturation verdicts (steady-state window)",
        ["case", "system", "op", "Kop/s", "bottleneck", "cpu", "fsync",
         "rpc", "contention", "hot host"])
    folded = Folded([verdicts])
    for case, record in runs:
        verdict = record.verdict
        hot = verdict.hotspots.get(verdict.label.split("-")[0], "") \
            if verdict.label in ("cpu-bound", "fsync-bound") else ""
        verdicts.add_row(
            case.label, case.system, case.op,
            round(record.metrics.throughput_kops(), 1), verdict.label,
            *[round(verdict.scores[k], 2)
              for k in ("cpu", "fsync", "rpc", "contention")],
            hot or "-")
        folded.lines.extend(
            timeline_lines(case.label, record.telemetry, verdict))
    verdicts.add_note(
        "scores are steady-window fractions in [0,1]; cpu/fsync are the "
        "hottest host's busy-fraction, rpc the wire share of latency, "
        "contention the abort/retry ratio")

    # Export the primary (first) case.
    case, record = runs[0]
    telemetry, verdict = record.telemetry, record.verdict
    extra = {"experiment": request.target, "case": case.label,
             "scale": request.scale, "verdict": verdict.label,
             "scores": verdict.scores,
             "steady_window_us": list(verdict.window)}
    rows = telemetry.export_rows()
    folded.exports = [
        Export(None, ".csv", rows, validate_rows,
               lambda path, _rows: telemetry.write_csv(path)),
        Export(None, ".json", telemetry.export_payload(extra=extra),
               lambda payload: validate_rows(payload["rows"]),
               lambda path, _payload: telemetry.write_json(path,
                                                           extra=extra)),
    ]
    latency = latency_summary_table(
        record.metrics.latency,
        f"{case.label}: completed-op latency digest")
    latency.add_note(f"the exported series has {len(rows)} rows")
    folded.tables.append(latency)
    return folded


# ---------------------------------------------------------------------------
# profile: cost centers, flame-graph exports, differential profiles.
# ---------------------------------------------------------------------------

#: Frame -> the mechanism it represents, used to annotate diff rows so a
#: delta names a cause instead of a label.
MECHANISMS: Dict[str, str] = {
    "rpc:lookup": "pathname-resolution round trip (one per op on Mantle; "
                  "baselines repeat it or skip it entirely)",
    "index.lookup": "server-side IndexTable resolution CPU on the "
                    "IndexNode (per-level probes + fixed request "
                    "overhead)",
    "rpc:read": "TafDB row-read round trip (InfiniFS resolves the path "
                "client-side, one read per directory level)",
    "rpc_read": "TafDB shard-server CPU handling row reads",
    "rpc:execute": "single-shard transaction commit round trip",
    "rpc_execute": "shard-side commit work: row writes + group-committed "
                   "WAL fsync",
    "tafdb.txn": "transaction coordination (1PC fast path or 2PC)",
    "tafdb.prepare": "2PC prepare fan-out (multi-shard transactions)",
    "raft.flush": "Raft log fsync on the IndexNode leader",
    "raft.apply": "applying committed Raft entries to the IndexTable",
    "lookup": "client-visible resolution phase (blocked time here is "
              "waiting on resolution sub-work)",
    "execution": "client-visible execution phase",
    "(unattributed)": "work outside any operation span (heartbeats, "
                      "compaction, setup)",
}

#: Cost-kind glosses for table notes.
KIND_NOTES = {
    "cpu": "core-occupancy from host.work",
    "fsync": "durable-flush time on a disk",
    "wire": "network flight time",
    "queue": "waiting for a busy core/disk/latch",
    "idle": "self-time not explained by any charge (blocked on "
            "children/commit waits)",
}


def reconcile_cpu(record: RunRecord) -> float:
    """Worst per-host relative error of profiler CPU vs telemetry busy.

    CPU charged to spans still open when the run stopped is counted on
    the profiler's side too: telemetry has it, and no finished span can.
    """
    worst = 0.0
    by_host = record.profile.cpu_by_host()
    for (host, kind), us in record.tracer.open_costs().items():
        if kind == "cpu":
            by_host[host] = by_host.get(host, 0.0) + us
    telemetry = record.telemetry
    hosts = set(h for h in by_host if h is not None)
    hosts.update(telemetry.hosts("host.cpu_busy_us"))
    for host in sorted(hosts):
        counter = telemetry.find("host.cpu_busy_us", host)
        expected = counter.total if counter is not None else 0.0
        err = abs(by_host.get(host, 0.0) - expected) / max(expected, 1e-9)
        worst = max(worst, err)
    return worst


def top_table(profile, top: int) -> Table:
    """One system's hottest (frame, kind) self-time centers."""
    ops = max(profile.ops, 1)
    total = max(profile.total_self_us, 1e-9)
    table = Table(f"{profile.name}: top self-time centers",
                  ["frame", "kind", "self us", "us/op", "share"])
    for frame, kind, us in profile.top_self(top):
        table.add_row(frame, kind, round(us, 1), round(us / ops, 2),
                      f"{us / total:.1%}")
    return table


def diff_table(base_system: str, base, other_system: str, other,
               top: int) -> Table:
    """Signed per-op cost deltas between two systems' profiles, largest
    first, with a mechanism note for the frames the repo understands."""
    table = Table(
        f"differential profile: {other.name} - {base.name} (per op)",
        ["frame", "kind", f"{base_system} us/op", f"{other_system} us/op",
         "delta us/op", "delta spans/op"])
    explained: List[str] = []
    for row in diff_profiles(base, other)[:top]:
        table.add_row(
            row.frame, row.kind, round(row.base_us_per_op, 2),
            round(row.other_us_per_op, 2),
            f"{row.delta_us_per_op:+.2f}",
            f"{row.delta_spans_per_op:+.2f}")
        mechanism = MECHANISMS.get(row.frame)
        if mechanism and mechanism not in explained:
            explained.append(mechanism)
            table.add_note(f"{row.frame}: {mechanism}")
    table.add_note(
        f"positive delta = {other_system} spends more; spans/op is "
        "the per-op span-count gap (extra RPC hops show up here)")
    return table


def fold_profile(request: Request, runs: Sequence[Run]) -> Folded:
    summary = Table(
        f"{request.target} cost-kind split (us per completed op)",
        ["system", "ops", "lat us/op", "cpu", "fsync", "wire", "queue",
         "idle", "cpu vs telemetry"])
    folded = Folded([summary])
    for case, record in runs:
        profile = record.profile
        err = reconcile_cpu(record)
        if err > RECONCILE_TOLERANCE:
            raise RuntimeError(
                f"{case.system}: profiler CPU diverges from telemetry "
                f"busy counters by {err:.2%} (> "
                f"{RECONCILE_TOLERANCE:.0%})")
        ops = max(profile.ops, 1)
        kinds = profile.cost_by_kind()
        summary.add_row(
            case.system, profile.ops,
            round(profile.total_root_us / ops, 1),
            *[round(kinds.get(kind, 0.0) / ops, 1)
              for kind in ("cpu", "fsync", "wire", "queue", "idle")],
            f"{err:.2%}")
        folded.exports += [
            Export(case.system, ".folded", to_folded(profile),
                   validate_folded, write_lines),
            Export(case.system, ".speedscope.json", to_speedscope(profile),
                   validate_speedscope)]
        if request.diff is None:
            folded.tables.append(top_table(profile, request.top))
    summary.add_note("kinds: " + "; ".join(
        f"{kind}={note}" for kind, note in KIND_NOTES.items()))
    if request.diff is not None:
        (base_case, base), (other_case, other) = runs
        folded.tables.append(diff_table(
            base_case.system, base.profile, other_case.system,
            other.profile, request.top))
    return folded


# ---------------------------------------------------------------------------
# critpath: what actually gated client latency.
# ---------------------------------------------------------------------------

def gating_table(crit, top: int) -> Table:
    """One system's top gating centers, per completed op."""
    ops = max(crit.ops, 1)
    table = Table(
        f"{crit.name}: top gating centers "
        f"({crit.ops} ops, {crit.mean_latency_us:.1f} us/op end-to-end)",
        ["host", "frame", "kind", "us/op", "share", "what-if component"])
    shares = crit.shares()
    for (host, frame, kind), us in crit.top_gating(top):
        table.add_row(host or "-", frame, kind, round(us / ops, 2),
                      f"{shares[(host, frame, kind)]:.1%}",
                      component_of(host, frame, kind) or "-")
    table.add_note(
        "share = fraction of end-to-end client latency gated by this "
        "center (all centers sum to 100%); component names the "
        "`whatif --speedup` knob that scales it, '-' = no single knob")
    return table


def contrast_table(crit, contrast, top: int) -> Table:
    """Gated vs total attributed cost: where the off-path slack lives."""
    ops = max(crit.ops, 1)
    table = Table(
        f"{crit.name}: on-path vs off-path cost (us per op)",
        ["host", "kind", "gated", "total", "off-path", "on-path frac"])
    for row in contrast[:top]:
        table.add_row(row.host or "-", row.kind,
                      round(row.gated_us / ops, 2),
                      round(row.total_us / ops, 2),
                      round(row.offpath_us / ops, 2),
                      f"{row.gated_frac:.0%}")
    table.add_note(
        "off-path = cost the profiler attributes that no op's critical "
        "path runs through (heartbeats, replication absorbed in commit "
        "waits, fan-out overlap); speeding it up returns ~nothing to "
        "clients — `whatif` makes that testable")
    return table


def fold_critpath(request: Request, runs: Sequence[Run]) -> Folded:
    folded = Folded()
    for case, record in runs:
        crit = record.crit
        check_conservation(crit, who=case.system)
        contrast = contrast_with_profile(crit, record.profile)
        folded.exports.append(Export(
            case.system, ".json", to_critpath_payload(crit, contrast),
            validate_critpath))
        folded.tables += [gating_table(crit, request.top),
                          contrast_table(crit, contrast, request.top)]
        folded.lines.append(f"exemplar path ({crit.name}):")
        folded.lines.extend("  " + line for line in crit.render_exemplar())
        folded.lines.append("")
    return folded


# ---------------------------------------------------------------------------
# blame: who delayed whom.
# ---------------------------------------------------------------------------

def _tenant_text(tenant: Optional[str]) -> str:
    return tenant if tenant is not None else "-"


def culprit_table(blame, top: int) -> Table:
    ops = max(blame.ops, 1)
    table = Table(
        f"{blame.name}: top culprits ({blame.ops} ops, "
        f"{blame.total_queue_us / ops:.1f} us/op queued = "
        f"{blame.queue_share:.1%} of latency)",
        ["culprit op", "tenant", "resource", "us/op", "queue share"])
    total = max(blame.total_queue_us, 1e-9)
    for (c_op, c_ten, res), us in blame.top_culprits(top):
        table.add_row(c_op, _tenant_text(c_ten), res,
                      round(us / ops, 2), f"{us / total:.1%}")
    table.add_note(
        "every gated queue microsecond is attributed to the occupant "
        "whose departure admitted the victim (shares sum to 100% of "
        "queued time); '(unknown)' = unlabelled holder, "
        "'(batch-window)' = Raft batching config, not another op")
    return table


def tenant_table(blame) -> Table:
    matrix = blame.tenant_matrix()
    table = Table(
        f"{blame.name}: tenant interference (queued us blamed on each "
        f"culprit tenant)",
        ["victim tenant", "culprit tenant", "us", "share of victim's "
         "queueing"])
    victim_totals: Dict[Optional[str], float] = {}
    for (v_ten, _c), us in matrix.items():
        victim_totals[v_ten] = victim_totals.get(v_ten, 0.0) + us
    for v_ten in sorted(victim_totals, key=lambda t: t or ""):
        denom = max(victim_totals[v_ten], 1e-9)
        rows = sorted(((c, us) for (v, c), us in matrix.items()
                       if v == v_ten), key=lambda cu: (-cu[1], cu[0] or ""))
        for c_ten, us in rows:
            table.add_row(_tenant_text(v_ten), _tenant_text(c_ten),
                          round(us, 1), f"{us / denom:.1%}")
    table.add_note("cross-tenant rows are interference a placement or "
                   "rebalancing change could remove; same-tenant rows "
                   "are self-contention")
    return table


def _victim_exemplar(crit):
    """The victim-tenant op closest to the victim ops' own mean latency
    (``CritPath.exemplar_root`` picks across all tenants); None when the
    run has no tenant called "victim"."""
    victims = [root for root, _us in crit.root_paths
               if root.attrs and root.attrs.get("tenant") == "victim"]
    if not victims:
        return None
    mean = sum(r.duration_us for r in victims) / len(victims)
    return min(victims, key=lambda r: (abs(r.duration_us - mean),
                                       r.span_id))


def fold_blame(request: Request, runs: Sequence[Run]) -> Folded:
    folded = Folded()
    for case, record in runs:
        crit = record.crit
        blame = crit.blame
        check_conservation(crit, who=case.system)
        folded.exports.append(Export(
            case.system, ".json", to_blame_payload(crit),
            validate_blame))
        folded.tables.append(culprit_table(blame, request.top))
        if len({tenant for _op, tenant in blame.victim_totals()}) > 1:
            folded.tables.append(tenant_table(blame))
        folded.lines.append(f"exemplar victim path ({blame.name}):")
        folded.lines.extend("  " + line for line in render_blame_exemplar(
            crit, root=_victim_exemplar(crit)))
        folded.lines.append("")
    return folded


# ---------------------------------------------------------------------------
# triage: per-phase tail blame.
# ---------------------------------------------------------------------------

def _verdict_jsonable(verdict) -> Dict[str, Any]:
    return {
        "label": verdict.label,
        "scores": {key: round(value, 6)
                   for key, value in sorted(verdict.scores.items())},
        "hotspots": dict(sorted(verdict.hotspots.items())),
    }


def _window_jsonable(phase: Phase) -> List[float]:
    return [round(phase.window[0], 3), round(phase.window[1], 3)]


def triage_phase(index: SpanIndex, kept: FrozenSet[int], phase: Phase,
                 is_last: bool, who: str) -> Dict[str, Any]:
    """Fold one anomalous phase's tail exemplars into gating + blame.

    The exemplars are the kept tail trees' roots (``kept``) whose op
    completed in the phase: completion time decides membership (that is
    when the latency digests record the op), and the run's final phase
    is end-inclusive so the last op to finish is not orphaned.  ``index``
    covers the tracer's retained spans.
    """
    lo, hi = phase.window
    crit = build_critpath(
        index, name=f"{who} {phase.label}",
        root_where=lambda span: span.span_id in kept and (
            lo <= span.end_us < hi or (is_last and span.end_us == hi)))
    entry: Dict[str, Any] = {
        "phase": phase.label,
        "window_us": _window_jsonable(phase),
        "verdict": _verdict_jsonable(phase.verdict),
        "exemplars": crit.ops + crit.op_failures,
        "gated_by": [],
        "blamed_on": [],
        "summary": (f"no tail exemplars completed in phase "
                    f"{phase.label!r}"),
    }
    if crit.ops == 0:
        return entry
    blame = crit.blame
    check_conservation(crit, f"{who} phase {phase.label}")
    entry["gated_by"] = center_rows(crit, EXPORT_TOP)
    entry["blamed_on"] = culprit_rows(blame, EXPORT_TOP)
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
        f"{g_frame} ({g_us / max(crit.total_us, 1e-9):.0%} of exemplar "
        f"latency), blamed on {blamed}")
    return entry


def triage_payload(target: str, case: Case,
                   record: RunRecord) -> Dict[str, Any]:
    """Phase table + per-anomalous-phase tail blame for one run."""
    phases = record.phases
    last_window = phases[-1].window if phases else (0.0, 0.0)
    primary = primary_phase(phases)
    index = SpanIndex(record.tracer.retained_spans())
    kept = frozenset(tree[-1].span_id
                     for tree in record.tracer.keeper.trees())
    return {
        "name": record.name,
        "system": case.system,
        "target": target,
        "op": case.op,
        "trace_stats": trace_stats(record.tracer),
        "phases": [{
            "label": phase.label,
            "window_us": _window_jsonable(phase),
            "ops": phase.ops,
            "busy": round(phase.busy, 6),
            "rate_per_s": round(phase.rate_per_s, 3),
            "p99_us": round(phase.p99_us, 3),
            "verdict": _verdict_jsonable(phase.verdict),
        } for phase in phases],
        "primary_phase": primary.label if primary is not None else None,
        "triage": [triage_phase(index, kept, phase,
                                phase.window == last_window, record.name)
                   for phase in anomalous_phases(phases)],
    }


_PHASE_ENUM = ("enum", PHASE_LABELS)

TRIAGE_SHAPE = {
    "name": "str", "system": "str", "target": "str", "op": "str",
    "trace_stats": dict.fromkeys(
        ("started", "finished", "dropped", "kept_roots",
         "kept_errors", "kept_spans", "kept_evicted_roots"), "int>=0"),
    "phases": [{
        "label": _PHASE_ENUM,
        "window_us": ["num"],
        "ops": "int>=0",
        "busy": "num>=0", "rate_per_s": "num>=0", "p99_us": "num>=0",
        "verdict": {"label": "text", "scores": {}},
    }, NONEMPTY],
    "primary_phase": ("enum?", PHASE_LABELS),
    "triage": [{
        "phase": _PHASE_ENUM,
        "exemplars": "int>=0",
        "summary": "str",
        "gated_by": [{"share": "num"}],
        "blamed_on": [],
    }],
}
_TRIAGED_SHAPE = {"critpath_conservation_error": "num>=0",
                  "blame_conservation_error": "num>=0"}


def validate_triage(payload: Any) -> List[str]:
    """Schema-check a triage payload; returns a list of problems.

    Beyond :data:`TRIAGE_SHAPE`, carries the load-bearing invariants into
    the export: phase windows are ordered pairs, every triaged phase's
    conservation errors stay inside :data:`CONSERVATION_TOLERANCE`, and
    its gating shares never sum past 1.
    """
    problems = check_shape(payload, TRIAGE_SHAPE)
    for where, phase in shape_items(payload, "phases"):
        window = phase.get("window_us")
        if isinstance(window, list) and not (
                len(window) == 2 and all(isinstance(v, (int, float))
                                         for v in window)
                and window[0] <= window[1]):
            problems.append(f"{where}: bad window_us {window!r}")
    for where, entry in shape_items(payload, "triage"):
        if not entry.get("gated_by"):
            continue
        problems += check_shape(entry, _TRIAGED_SHAPE, where=where)
        for field in _TRIAGED_SHAPE:
            value = entry.get(field)
            if isinstance(value, (int, float)) and \
                    value > CONSERVATION_TOLERANCE:
                problems.append(
                    f"{where}: {field} {value!r} exceeds the "
                    f"{CONSERVATION_TOLERANCE} conservation tolerance")
        share_sum = sum(center["share"]
                        for _w, center in shape_items(entry, "gated_by")
                        if isinstance(center.get("share"), (int, float)))
        if share_sum > 1.0 + 1e-3:
            problems.append(f"{where}: gated_by shares sum to "
                            f"{share_sum:.6f} > 1")
    return problems


def phase_table(system: str, phases: List[Phase]) -> Table:
    table = Table(
        f"{system}: phases ({len(phases)} segments)",
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


def triage_table(system: str, triage: List[Dict[str, Any]],
                 top: int) -> Table:
    table = Table(
        f"{system}: tail triage per anomalous phase",
        ["phase", "exemplars", "gated by", "share", "blamed on", "share"])
    for entry in triage:
        gates = [(f"{g['kind']}" + (f"@{g['host']}" if g["host"] else "")
                  + f" in {g['frame']}", f"{g['share']:.1%}")
                 for g in entry["gated_by"][:top]]
        culprits = [(c["culprit_op"]
                     + (f"/{c['culprit_tenant']}"
                        if c["culprit_tenant"] else "")
                     + f" at {c['resource']}", f"{c['share']:.1%}")
                    for c in entry["blamed_on"][:top]]
        for i in range(max(len(gates), len(culprits), 1)):
            table.add_row(
                entry["phase"] if i == 0 else "",
                entry["exemplars"] if i == 0 else "",
                *(gates[i] if i < len(gates) else ("", "")),
                *(culprits[i] if i < len(culprits) else ("", "")))
    table.add_note(
        "exemplars are tail-kept op trees completing inside the phase "
        "window; gating shares cover 100% of exemplar latency, blame "
        "shares cover 100% of their queued time")
    return table


def fold_triage(request: Request, runs: Sequence[Run]) -> Folded:
    folded = Folded()
    for case, record in runs:
        payload = triage_payload(request.target, case, record)
        folded.exports.append(
            Export(case.system, ".json", payload, validate_triage))
        folded.tables.append(phase_table(case.system, record.phases))
        if payload["triage"]:
            folded.tables.append(triage_table(
                case.system, payload["triage"], request.top))
        warning = dropped_warning(payload["trace_stats"])
        if warning:
            folded.lines.append(warning)
        folded.lines.extend(f"{case.system}: {entry['summary']}"
                            for entry in payload["triage"])
        if not payload["triage"]:
            folded.lines.append(f"{case.system}: no anomalous phases — "
                                f"nothing to triage")
        folded.lines.append("")
    return folded


# ---------------------------------------------------------------------------
# The view table and the driver.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class View:
    """One explanation: the rig it needs and the fold that derives it."""

    fold: Callable[[Request, Sequence[Run]], Folded]
    needs: Tuple[str, ...]
    #: Runs every case (contrast ones included) and exports once per
    #: target; the others export one file per system.
    whole_target: bool = False
    #: Wants :data:`TELEMETRY_WINDOW_US` rather than the default window,
    #: so it cannot share a run with a view that segments on the default.
    fine_window: bool = False


VIEWS: Dict[str, View] = {
    "trace": View(fold_trace, ("tracer",), whole_target=True),
    "telemetry": View(fold_telemetry, ("telemetry", "verdict"),
                      whole_target=True, fine_window=True),
    "profile": View(fold_profile, ("tracer", "telemetry")),
    "critpath": View(fold_critpath, ("tracer",)),
    "blame": View(fold_blame, ("tracer",)),
    "triage": View(fold_triage, ("tracer", "keeper", "telemetry",
                                 "phases")),
}


@dataclasses.dataclass
class Explanation:
    """What :func:`explain` produced, in view order."""

    #: view -> its fold (payloads under ``.exports``).
    folded: Dict[str, Folded]
    #: view -> the ``(case, run record)`` pairs it folded.
    runs: Dict[str, List[Run]]
    tables: List[Table] = dataclasses.field(default_factory=list)
    lines: List[str] = dataclasses.field(default_factory=list)
    #: Files written, in order.
    paths: List[str] = dataclasses.field(default_factory=list)


def explain(target: str, views: Sequence[str], scale: str = "quick",
            out_dir: str = "", systems: Optional[Sequence[str]] = None,
            diff: Optional[Sequence[str]] = None,
            clients: Optional[int] = None, items: Optional[int] = None,
            top: int = 12, window_us: Optional[float] = None) -> Explanation:
    """Run ``target`` instrumented once per case and fold every view.

    Views that agree on the telemetry window share one run per case
    under the union of their rigs.  Raises ``ValueError`` for requests
    that cannot be served (unknown target or view, ``diff`` without the
    profile view, several cases per system under a per-system view) and
    ``RuntimeError`` when a view's invariant gate or an export's
    validation fails — in which case nothing further is written.
    """
    views = list(dict.fromkeys(views))
    unknown = [view for view in views if view not in VIEWS]
    if unknown or not views:
        raise ValueError(f"unknown view {', '.join(unknown) or '(none)'}; "
                         f"choose from {', '.join(VIEWS)}")
    if diff is not None and "profile" not in views:
        raise ValueError("--diff needs the profile view")
    if target == MULTITENANT and views != ["blame"]:
        raise ValueError(f"{MULTITENANT} is a blame scenario; "
                         f"use --view blame")
    cases = resolve_cases(target, diff or systems)
    knees = [case for case in cases if not case.contrast]
    per_system = [view for view in views if not VIEWS[view].whole_target]
    if per_system and len({case.system for case in knees}) != len(knees):
        raise ValueError(
            f"{target} has several cases per system, which --view "
            f"{','.join(per_system)} cannot name apart; explain one op "
            f"at a time (e.g. `explain {knees[0].op}`)")
    request = Request(target, scale, top, tuple(diff) if diff else None)
    runs: Dict[str, List[Run]] = {}
    for fine in (False, True):
        group = [view for view in views if VIEWS[view].fine_window == fine]
        if not group:
            continue
        needs = {need for view in group for need in VIEWS[view].needs}
        window = (window_us or pick(scale, *TELEMETRY_WINDOW_US)) \
            if fine else None
        whole = any(VIEWS[view].whole_target for view in group)
        ran = [(case, run_case(case, scale, needs, clients, items, window))
               for case in (cases if whole else knees)]
        for view in group:
            runs[view] = ran if VIEWS[view].whole_target else \
                [run for run in ran if not run[0].contrast]
    folded = {view: VIEWS[view].fold(request, runs[view]) for view in views}
    out = Explanation(folded, runs)
    for view in views:
        out.tables += folded[view].tables
        out.lines += folded[view].lines
    # Every fold (and so every invariant gate) has passed before the
    # first file is written.
    for view in views:
        out.paths += [
            write_export(out_dir, view, target, export.system,
                         export.suffix, export.payload, export.validate,
                         export.write)
            for export in folded[view].exports]
    out.lines += [f"(wrote {path})" for path in out.paths]
    return out
