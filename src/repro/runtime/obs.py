"""Live-cluster observability: span snapshots, trace merge, metrics.

The live runtime reuses the simulator's instrument types
(:class:`~repro.sim.trace.Tracer`, :class:`~repro.sim.telemetry.Telemetry`)
fed by wallclock instead of the sim clock, but each process only sees its
own buffers.  This module is the cross-process half:

* **snapshots** — every :class:`~repro.runtime.aio.WireServer` answers
  ``obs.trace_snapshot`` / ``obs.metrics_snapshot`` / ``obs.reset``
  control RPCs with the JSON payloads built here, so any role can be
  interrogated over its ordinary wire port;
* **merge** — :func:`merge_chrome_trace` aligns per-process span buffers
  onto one time axis (each process records the wall-clock epoch of its
  monotonic t0) and emits a single Chrome-trace payload, one pid track
  per process, with the cross-process parent links preserved in span
  attributes (``remote_parent_proc``/``remote_parent_span``);
* **validation** — :func:`cross_process_problems` checks every remote
  parent reference resolves and every op tree is connected across the
  processes it touched; :func:`dyn_self_time_problems` checks the
  within-process dynamic trees telescope (non-negative self-times), the
  invariant the profiler and critical-path machinery rely on;
* **phase breakdown** — :func:`phase_breakdown` walks each op's *global*
  span tree and folds each op kind's charges into wire/fsync/cpu/queue
  microseconds per op.  The same function consumes simulated tracer
  output, which is what makes the ``mantle-exp live fig12`` differential
  an apples-to-apples table;
* **collection** — :func:`collect_snapshots` reads one snapshot per role
  over the wire; a metrics snapshot is schema-checked by
  :func:`validate_metrics_snapshot`.

Validation and the phase breakdown read one
:class:`~repro.sim.trace.SpanIndex` over the snapshots, keyed by
``(process, span_id)`` (``docs/observability.md``, "One span index").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.sim import telemetry as telemetry_module
from repro.sim.trace import (
    CAT_OP,
    EDGE_REMOTE,
    Span,
    SpanIndex,
    chrome_trace_events,
    span_from_jsonable,
    span_to_jsonable,
    trace_stats,
)
from repro.tools.shape import check_shape

#: Snapshot schema version; bump on incompatible payload changes.
SNAPSHOT_VERSION = 1

#: Phase columns of the sim-vs-live differential, in display order.
#: ``queue:*`` refinements fold into ``queue``; anything else (there is
#: nothing else today) would fold into ``other``.
PHASE_KINDS = ("wire", "fsync", "cpu", "queue")


# ---------------------------------------------------------------------------
# Snapshot payloads (what the obs.* control RPCs answer with).
# ---------------------------------------------------------------------------

def snapshot_from_tracer(process: str, tracer, epoch_us: float = 0.0,
                         now_us: float = 0.0,
                         clock: str = "sim") -> Dict[str, Any]:
    """Build a trace snapshot from any tracer (simulated or wall-clock)."""
    snapshot = {
        "version": SNAPSHOT_VERSION,
        "process": process,
        "clock": clock,
        "epoch_us": epoch_us,
        "now_us": now_us,
        "enabled": bool(tracer.enabled),
        "started": tracer.started,
        "finished": tracer.finished,
        "dropped": tracer.dropped,
        "spans": [span_to_jsonable(span)
                  for span in tracer.retained_spans()],
    }
    snapshot["trace_stats"] = trace_stats(tracer)
    return snapshot


def trace_snapshot_payload(runtime) -> Dict[str, Any]:
    """One live process's span buffer, with its wall-clock epoch."""
    return snapshot_from_tracer(runtime.process_name, runtime.tracer,
                                epoch_us=runtime.epoch_us,
                                now_us=runtime.now, clock="wallclock")


def metrics_snapshot_payload(runtime) -> Dict[str, Any]:
    """One live process's metrics: tracer counters + telemetry windows."""
    tracer = runtime.tracer
    telemetry = runtime.telemetry
    return {
        "version": SNAPSHOT_VERSION,
        "process": runtime.process_name,
        "clock": "wallclock",
        "epoch_us": runtime.epoch_us,
        "now_us": runtime.now,
        "tracing": dict(trace_stats(tracer),
                        enabled=bool(tracer.enabled)),
        "telemetry": telemetry.export_payload(
            now=runtime.now, extra={"enabled": bool(telemetry.enabled)}),
    }


#: What every snapshot carries, whichever obs.* RPC answered with it.
_SNAPSHOT_HEADER_SHAPE = {
    "version": ("const", SNAPSHOT_VERSION,
                f"unknown snapshot version (expected {SNAPSHOT_VERSION})"),
    "process": "text",
    "epoch_us": "num",
    "now_us": "num",
}
TRACE_SNAPSHOT_SHAPE = {
    **_SNAPSHOT_HEADER_SHAPE,
    "spans": [{"id": "any", "start_us": "any", "name": "any"}],
}
METRICS_SNAPSHOT_SHAPE = {
    **_SNAPSHOT_HEADER_SHAPE,
    "tracing": {},
    "telemetry": {"rows": []},
}
DIGESTS_SHAPE = [{
    "metric": "text",
    "window_us": "num",
    "windows?": [{"window_start_us": "any", "buckets": []}],
}]


def validate_trace_snapshot(payload: Any) -> List[str]:
    """Schema-check one trace snapshot; returns a list of problems."""
    return check_shape(payload, TRACE_SNAPSHOT_SHAPE,
                       what="snapshot is not an object")


def validate_metrics_snapshot(payload: Any) -> List[str]:
    """Schema-check one metrics snapshot (rows and digests included);
    returns a list of problems."""
    problems = check_shape(payload, METRICS_SNAPSHOT_SHAPE,
                           what="snapshot is not an object")
    telemetry = payload.get("telemetry") \
        if isinstance(payload, dict) else None
    if isinstance(telemetry, dict):
        if isinstance(telemetry.get("rows"), list):
            problems += telemetry_module.validate_rows(telemetry["rows"])
        if telemetry.get("digests") is not None:
            problems += validate_digests(telemetry["digests"])
    return problems


def validate_digests(digests: Any) -> List[str]:
    """Schema-check a telemetry payload's ``digests`` section."""
    return check_shape(digests, DIGESTS_SHAPE, name="telemetry.digests")


def merged_digests(metrics_snapshots: Iterable[Dict[str, Any]]
                   ) -> Dict[Tuple[str, str], Any]:
    """Merge every process's digests into cluster-wide ones.

    Bucket-count addition is associative and commutative, so the merge is
    order-independent; snapshots are still folded in sorted process order
    to keep the per-window float sums (count-weighted means) byte-stable.
    Returns ``(metric, host) -> merged Digest``.
    """
    snaps = sorted(metrics_snapshots, key=lambda s: s.get("process", ""))
    out: Dict[Tuple[str, str], Any] = {}
    for snap in snaps:
        telemetry = snap.get("telemetry") or {}
        for data in telemetry.get("digests") or ():
            digest = telemetry_module.digest_from_jsonable(data)
            key = (digest.name, digest.host or "")
            if key in out:
                out[key].merge(digest)
            else:
                out[key] = digest
    return out


# ---------------------------------------------------------------------------
# Cross-process merge and validation.
# ---------------------------------------------------------------------------

def _spans_of(snapshot: Dict[str, Any]) -> List[Span]:
    return [span_from_jsonable(d) for d in snapshot.get("spans", ())]


def merge_chrome_trace(snapshots: Iterable[Dict[str, Any]]) -> dict:
    """Merge per-process snapshots into one Chrome-trace payload.

    Each process becomes a pid track; timestamps are shifted so every
    track shares the earliest process's epoch as t=0 (keeping ``ts``
    non-negative, which the validator requires).  Cross-process edges
    survive as ``remote_parent_proc``/``remote_parent_span`` span args.
    """
    snaps = sorted(snapshots, key=lambda s: s.get("process", ""))
    if not snaps:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(float(s.get("epoch_us", 0.0)) for s in snaps)
    events: List[dict] = []
    for pid, snap in enumerate(snaps, start=1):
        offset = float(snap.get("epoch_us", 0.0)) - base
        events.extend(chrome_trace_events(
            _spans_of(snap), pid=pid, process_name=snap.get("process"),
            ts_offset_us=offset))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _op_roots(index: SpanIndex) -> List[Span]:
    """Every op span heading a tree, in key order."""
    return [span for span in sorted(index.spans, key=index.key)
            if span.category == CAT_OP and index.parent(span) is None]


def cross_process_problems(snapshots: List[Dict[str, Any]]) -> List[str]:
    """Check the merged trace's cross-process structure; returns problems:
    every ``remote_parent_*`` reference must resolve to a snapshotted span
    in the named process (a dangling one would mean the re-parenting
    protocol lost an edge)."""
    index = SpanIndex(snapshots=snapshots)
    problems: List[str] = []
    for span in sorted(index.spans, key=index.key):
        edge = index.edge(span)
        if edge is None or edge[0] != EDGE_REMOTE:
            continue
        proc, span_id = index.key(span)
        target = edge[1]
        if target[0] not in index.processes:
            problems.append(
                f"{proc}#{span_id} ({span.name}): remote parent process "
                f"{target[0]!r} was not snapshotted")
        elif index.parent(span) is None:
            problems.append(
                f"{proc}#{span_id} ({span.name}): remote parent "
                f"{target[0]}#{target[1]} not found (dropped span?)")
    return problems


def op_tree_stats(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Connectivity stats for the merged trace: per-op-root tree sizes and
    the set of processes each tree touches (the e2e assertion surface)."""
    index = SpanIndex(snapshots=snapshots)
    trees = []
    for root in _op_roots(index):
        proc, span_id = index.key(root)
        nodes = index.tree(root)
        trees.append({"root": f"{proc}#{span_id}", "op": root.name,
                      "spans": len(nodes),
                      "processes": sorted({index.key(node)[0]
                                           for node in nodes})})
    return {"ops": len(trees), "trees": trees}


def dyn_self_time_problems(snapshots: List[Dict[str, Any]],
                           tolerance_us: float = 1.0) -> List[str]:
    """Within each process, dynamic-tree self-times must be non-negative.

    Spans opened on one task stack nest strictly (a child's interval lies
    inside its dynamic parent's), so duration minus the sum of direct
    dynamic children must never go meaningfully negative — the telescoping
    property every downstream analysis assumes.  ``tolerance_us`` absorbs
    clock-read ordering dust on the wall clock.
    """
    index = SpanIndex(snapshots=snapshots)
    order = {proc: i for i, proc in enumerate(index.processes)}
    problems: List[str] = []
    for span in sorted(index.spans,
                       key=lambda s: (order[index.key(s)[0]], s.span_id)):
        self_us = index.dyn_self_us(span)
        if self_us < -tolerance_us:
            proc, span_id = index.key(span)
            problems.append(
                f"{proc}#{span_id} ({span.name}): negative self time "
                f"{self_us:.1f}us")
    return problems


# ---------------------------------------------------------------------------
# Per-op phase breakdown (the sim-vs-live differential's data source).
# ---------------------------------------------------------------------------

class OpPhases:
    """Aggregated phase costs for one op kind across its whole tree."""

    __slots__ = ("op", "count", "total_latency_us", "phase_us")

    def __init__(self, op: str):
        self.op = op
        self.count = 0
        self.total_latency_us = 0.0
        self.phase_us: Dict[str, float] = {}

    @property
    def mean_latency_us(self) -> float:
        return self.total_latency_us / self.count if self.count else 0.0

    def mean_phase_us(self, kind: str) -> float:
        return self.phase_us.get(kind, 0.0) / self.count if self.count \
            else 0.0

    @property
    def mean_other_us(self) -> float:
        """Latency no charge explains: blocked/idle residual per op."""
        accounted = sum(self.phase_us.values())
        return max(0.0, (self.total_latency_us - accounted) / self.count) \
            if self.count else 0.0


def _fold_kind(kind: str) -> str:
    if kind.startswith("queue"):
        return "queue"
    return kind if kind in PHASE_KINDS else "other"


def phase_breakdown(snapshots: List[Dict[str, Any]]) -> Dict[str, OpPhases]:
    """Fold every op root's *global* tree into per-kind phase costs.

    Charges land on exactly one span each (the innermost open one at
    charge time) and the server-side handler time is subtracted from the
    caller's wire charge, so summing a tree's charges — across processes,
    via the remote links — double-counts nothing.  Works identically on
    simulated and live snapshots; only successful ops are folded.
    """
    index = SpanIndex(snapshots=snapshots)
    out: Dict[str, OpPhases] = {}
    for span in _op_roots(index):
        if not span.ok:
            continue
        agg = out.get(span.name)
        if agg is None:
            agg = out[span.name] = OpPhases(span.name)
        agg.count += 1
        agg.total_latency_us += span.duration_us
        for node in index.tree(span):
            costs = node.costs
            if costs:
                for (kind, _host), us in costs.items():
                    folded = _fold_kind(kind)
                    agg.phase_us[folded] = agg.phase_us.get(folded, 0.0) + us
    return out


# ---------------------------------------------------------------------------
# Snapshot collection over the wire.
# ---------------------------------------------------------------------------

def collect_snapshots(endpoints: Dict[str, str],
                      method: str = "obs.trace_snapshot"
                      ) -> List[Dict[str, Any]]:
    """Fetch one obs snapshot from each role endpoint, sorted by role
    name, over a throwaway connection each.

    ``endpoints`` maps role name -> ``host:port`` (a cluster's
    ``endpoints``, either flavour).  Blocking sockets: call it from
    synchronous code (the ``mantle-exp`` commands, the ledger, tests),
    never from inside a live cluster's loop.
    """
    from repro.runtime.client import LiveClient

    snapshots = []
    for _role, endpoint in sorted(endpoints.items()):
        with LiveClient(endpoint, rpc_timeout_s=10.0) as client:
            snapshots.append(client.call(method))
    return snapshots
