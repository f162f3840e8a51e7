"""Critical-path analysis and the what-if ("virtual speedup") predictor.

The cost profiler (:mod:`repro.sim.profile`) answers *where every simulated
microsecond went*; this module answers the sharper question *which
microseconds actually gated end-to-end latency* — and, on top of that,
*what a hypothesised fix would buy*.

Extraction
----------
An op's gating path is its :class:`~repro.sim.trace.SpanIndex` gating
tree: a **serial decomposition** of its wall clock, with each overlapping
2PC fan-out group folded to its **gating leg** (``docs/observability.md``,
"One span index").  :func:`gating_walk` splits every span's self-time on
it into gating segments:

* the cpu / fsync / wire charges the sim layer attributed to the span,
* ``queue`` charges refined by the resource waited on
  (``queue:cpu`` / ``queue:disk`` / ``queue:latch``, from
  ``Span.queue_res``),
* **blocked-on edges** (``Span.blocked``) — time the span spent waiting on
  *another process*, split into the causes the waiting site names (the
  IndexNode service splits the Raft commit wait and the follower read
  barrier into ``raft.*`` causes on the hosts that did the work),
* an ``idle`` residual for self-time no charge or blocked edge explains.

Summed over an op's tree the segments equal the op's duration (up to float
addition dust), so the aggregated **gating profile** — microseconds gated
per (host, frame, kind) center — covers 100% of end-to-end latency and a
center's ``share`` reads directly as "fraction of client latency gated
here".

Slack
-----
Because each op is a serial chain, every on-path microsecond has zero
slack: shrinking it moves the op's finish time one-for-one (first order —
queueing effects are where the what-if *rerun* earns its keep).  The
interesting slack lives at the center level: :func:`contrast_with_profile`
aligns the gating profile against the total-cost profile, and the
difference — cost attributed somewhere, but never on any op's path — is
**off-path work** (Raft heartbeats, follower fsyncs absorbed in the
replicate edge, compaction, maintenance).  Speeding up an off-path center
predicts ≈0 client-visible gain, which the what-if engine makes testable.

What-if
-------
:func:`predict_speedup` maps each gating center to the
:data:`~repro.sim.host.COMPONENT_FIELDS` component that scales it and
computes the first-order gain ``gated_us * (1 - 1/factor)`` of a
:class:`~repro.sim.host.CostOverrides` set.  Uniquely, because the cluster
is a deterministic DES, the prediction is *checkable*: rerun the sim with
the overrides actually applied (``MantleConfig.overrides``) and compare.
``mantle-exp whatif`` automates exactly that loop.

Known first-order limits (documented, and why validation picks the probes
it does): with the follower piggyback split, ``raft.replicate`` is the
wire-only remainder and maps to ``net.rtt`` (the stamps come from the
*gating* follower, so residual skew from the non-gating replicas still
lands in replicate); queue segments scale with their underlying resource
only approximately (we assume wait shrinks proportionally with service
time).
Most importantly the model is **open-loop**: past the saturation knee,
shrinking one center raises throughput, which refills the other queues
and claws back much of the predicted gain — a closed-loop effect no
slack model sees.  Validation therefore probes at figure *knee* points
(latency just lifting off the plateau), where the measured reruns show
first-order predictions hold to ~10%; at deep saturation the same probes
over-predict ~2x, which the whatif rerun makes visible rather than
hiding.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.sim.host import COMPONENT_FIELDS, CostOverrides
from repro.sim.trace import CAT_OP, Span, SpanIndex, check_shape, shape_items

#: Occupant tag used when a queue segment carries no ``queue_by`` entry
#: (unlabelled holder, float-dust residuals).
UNKNOWN_CULPRIT = ("(unknown)", None)

#: Gating-segment kinds, in display order.  ``queue:*`` refines ``queue``
#: by the resource waited on; blocked-on edges reuse cpu/fsync/wire/queue.
SEGMENT_KINDS = ("cpu", "fsync", "wire", "queue:cpu", "queue:disk",
                 "queue:latch", "queue", "idle")

#: A gating center: (host, frame, kind) -> microseconds on some op's path.
Center = Tuple[Optional[str], str, str]

#: One gating segment: (host, frame, kind, microseconds, whether it came
#: from ``Span.blocked`` — time waiting on another process's work).
Segment = Tuple[Optional[str], str, str, float, bool]


def collapse_kind(kind: str) -> str:
    """Fold ``queue:<resource>`` back to ``queue`` (profile alignment)."""
    return "queue" if kind.startswith("queue:") else kind


class CritPath:
    """The aggregated critical-path (gating) profile of one traced run.

    Attributes
    ----------
    gated:
        (host, frame, kind) -> microseconds gating end-to-end latency.
        Frames are span names, except blocked-on segments where the frame
        is the *cause* (``raft.flush``, ``raft.replicate``, ...).
    ops / op_failures:
        successful roots folded in / failed roots skipped (failed ops
        don't contribute latency, mirroring ``MetricSet``).
    total_us:
        summed duration of the folded roots == sum of ``gated`` values
        (up to float dust); the share denominator.
    root_paths:
        (root span, extracted path microseconds) per folded op — the
        per-op conservation invariant ``path_us == root.duration_us``.
    blame:
        the :class:`BlameMatrix` of the same walks' queue segments.
    blocked_centers:
        the centers some ``Span.blocked`` segment landed on.
    """

    def __init__(self, index: SpanIndex, name: str = ""):
        self.index = index
        self.name = name
        self.ops = 0
        self.op_failures = 0
        self.total_us = 0.0
        self.gated: Dict[Center, float] = {}
        self.ops_by_name: Dict[str, int] = {}
        self.root_paths: List[Tuple[Span, float]] = []
        self.blame = BlameMatrix(name)
        self.blocked_centers: Set[Center] = set()

    # -- derived views -----------------------------------------------------

    @property
    def mean_latency_us(self) -> float:
        return self.total_us / self.ops if self.ops else 0.0

    def shares(self) -> Dict[Center, float]:
        """center -> fraction of end-to-end latency it gates."""
        total = self.total_us
        if total <= 0.0:
            return {key: 0.0 for key in self.gated}
        return {key: us / total for key, us in self.gated.items()}

    def top_gating(self, n: Optional[int] = 15
                   ) -> List[Tuple[Center, float]]:
        """The ``n`` centers gating the most latency (None: all), largest
        first."""
        ranked = sorted(self.gated.items(),
                        key=lambda kv: (-kv[1], _center_sort_key(kv[0])))
        return ranked[:n]

    def gated_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_host, _frame, kind), us in self.gated.items():
            out[kind] = out.get(kind, 0.0) + us
        return out

    def conservation_error(self) -> float:
        """Relative |sum(gated) - sum(root durations)|; float dust only."""
        gated = sum(self.gated.values())
        return abs(gated - self.total_us) / max(self.total_us, 1e-9)

    # -- exemplar rendering -------------------------------------------------

    def exemplar_root(self) -> Optional[Span]:
        """The folded op whose duration is closest to the mean latency —
        a "typical" operation, deterministically chosen."""
        if not self.root_paths:
            return None
        mean = self.mean_latency_us
        return min(self.root_paths,
                   key=lambda rp: (abs(rp[0].duration_us - mean),
                                   rp[0].span_id))[0]

    def render_exemplar(self, root: Optional[Span] = None) -> List[str]:
        """Render one op's path as an indented tree with per-span gating
        segments (the drill-down behind the aggregated centers)."""
        root = root or self.exemplar_root()
        if root is None:
            return ["(no completed ops traced)"]
        lines = [f"{root.name}  {root.duration_us:.1f}us end-to-end"]

        def describe(segments: List[Segment]) -> str:
            parts = []
            for host, _frame, kind, us, _blocked in segments:
                if us > 0.005:
                    where = f"@{host}" if host else ""
                    parts.append(f"{kind}{where} {us:.1f}")
            return ", ".join(parts) if parts else "-"

        for span, depth, segments in self.path_tree(root):
            if depth:
                lines.append(f"{'  ' * depth}{span.name}  "
                             f"{span.duration_us:.1f}us  "
                             f"[{describe(segments)}]")
            else:
                lines.append(f"gates: {describe(segments)}")
        return lines

    def path_tree(self, root: Span) -> Iterator[
            Tuple[Span, int, List[Segment]]]:
        """A folded op's walk as a tree for display: ``(span, depth,
        segments)`` depth first, children by start time."""
        segments = dict(gating_walk(self.index, root))
        gating_children = self.index.gating_children
        stack = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth, segments[span]
            stack.extend((child, depth + 1) for child in sorted(
                gating_children(span), key=lambda s: (s.start_us, s.span_id),
                reverse=True))


def _center_sort_key(center: Center) -> Tuple[str, str, str]:
    host, frame, kind = center
    return (host or "", frame, kind)


def _segments_of(span: Span, self_us: float) -> List[Segment]:
    """Decompose one span's self-time into gating segments.  By
    construction the segments sum to ``self_us`` up to float dust:
    charges are taken verbatim, queue charges are refined by their
    resource tags, blocked-on edges refine (and are capped by) the idle
    residual, and whatever remains is ``idle``.
    """
    frame = span.name
    out: List[Segment] = []
    charged = 0.0
    if span.costs:
        queue_res = dict(span.queue_res) if span.queue_res else {}
        for (kind, host), us in span.costs.items():
            charged += us
            if kind != "queue":
                out.append((host, frame, kind, us, False))
                continue
            remaining = us
            for (resource, rhost), rus in list(queue_res.items()):
                if rhost != host or rus <= 0.0 or remaining <= 0.0:
                    continue
                take = min(rus, remaining)
                out.append((host, frame, f"queue:{resource}", take, False))
                remaining -= take
                del queue_res[(resource, rhost)]
            if remaining > 0.0:
                out.append((host, frame, "queue", remaining, False))
    avail = self_us - charged
    if avail < 0.0:
        avail = 0.0
    if span.blocked:
        blocked_total = sum(span.blocked.values())
        scale = 1.0
        if blocked_total > avail:
            scale = avail / blocked_total if blocked_total > 0.0 else 0.0
        used = 0.0
        for (cause, kind, host), us in span.blocked.items():
            us *= scale
            if us > 0.0:
                out.append((host, cause, kind, us, True))
                used += us
        avail -= used
    if avail > 0.0:
        out.append((span.host, frame, "idle", avail, False))
    return out


def gating_walk(index: SpanIndex, root: Span
                ) -> Iterator[Tuple[Span, List[Segment]]]:
    """Every span on ``root``'s gating path with its segments, each once.

    A span's segments decompose its gating self-time, so over the walk
    they sum to the root's duration — the telescoping identity the
    profiler relies on, inherited segment by segment, with each fan-out
    group contributing exactly its gating leg.
    """
    gating_children = index.gating_children
    gating_self_us = index.gating_self_us
    stack = [root]
    while stack:
        node = stack.pop()
        yield node, _segments_of(node, gating_self_us(node))
        stack.extend(gating_children(node))


def build_critpath(index: SpanIndex, name: str = "",
                   root_where: Callable[[Span], bool] =
                   lambda span: span.category == CAT_OP) -> CritPath:
    """Extract and aggregate the critical path of every traced op.

    Only *successful*, *dynamically rooted* spans that ``root_where``
    accepts — by default every ``op`` span — are folded (an op whose root
    fell out of the ring cannot be decomposed; failed ops contribute no
    latency, only ``op_failures``).  Per root, the walk's segments sum to
    the root's duration exactly, and its queue segments are blamed in the
    same pass (:attr:`CritPath.blame`).

    Other predicates repoint the fold: the failover extension decomposes
    its ``raft.election`` spans, the triage view one phase's tail
    exemplars.
    """
    crit = CritPath(index, name)
    gated = crit.gated
    blame = crit.blame
    for span in index.dyn_roots():
        if not root_where(span):
            continue
        if not span.ok:
            crit.op_failures += 1
            continue
        crit.ops += 1
        crit.ops_by_name[span.name] = crit.ops_by_name.get(span.name, 0) + 1
        crit.total_us += span.duration_us
        attrs = span.attrs
        victim = (span.name, attrs.get("tenant") if attrs else None)
        path_us = 0.0
        for node, segments in gating_walk(index, span):
            for host, frame, kind, us, blocked in segments:
                key = (host, frame, kind)
                gated[key] = gated.get(key, 0.0) + us
                path_us += us
                if blocked:
                    crit.blocked_centers.add(key)
                resource = _queue_resource(frame, kind)
                if resource is not None and us > 0.0:
                    blame.add(victim, node, resource, host, us)
        crit.root_paths.append((span, path_us))
    blame.ops = crit.ops
    blame.total_us = crit.total_us
    return crit


def critpath_from_tracer(tracer, name: str = "") -> CritPath:
    """Fold one tracer's finished spans into a gating profile."""
    return build_critpath(SpanIndex(tracer.spans), name=name)


# ---------------------------------------------------------------------------
# Blame: who delayed whom, per queue-kind gating segment.
# ---------------------------------------------------------------------------

def _queue_resource(frame: str, kind: str) -> Optional[str]:
    """The occupant-tagged resource behind a queue-kind gating segment,
    or ``None`` for non-queue segments.  ``queue:<res>`` names it
    directly; the Raft batch-window blocked edge queues on the leader's
    log (tagged ``"raft"``); an untagged ``queue`` residual matches no
    occupant map and falls to the unknown culprit."""
    if kind.startswith("queue:"):
        return kind.partition(":")[2]
    if kind == "queue":
        return "raft" if frame == "raft.queue" else "other"
    return None


#: One blame cell key: (victim op, victim tenant, culprit op,
#: culprit tenant, resource, host).
BlameKey = Tuple[str, Optional[str], str, Optional[str], str,
                 Optional[str]]


class BlameMatrix:
    """Who-delayed-whom: queue microseconds on victims' critical paths,
    attributed to the occupant that held (or preceded them at) the
    contended resource.

    Every queue-kind gating segment of every folded op is distributed
    over the span's ``queue_by`` occupant tags for that (resource, host)
    — proportionally, so the matrix total equals the queue-segment total
    *exactly* (float dust aside); segments with no tags land under
    :data:`UNKNOWN_CULPRIT`.  ``total_us`` is the all-segments denominator
    (the folded ops' end-to-end latency), so ``queue_share`` reads as
    "fraction of client latency spent queueing behind someone".
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.total_us = 0.0
        self.total_queue_us = 0.0
        self.cells: Dict[BlameKey, float] = {}

    @property
    def blamed_us(self) -> float:
        return sum(self.cells.values())

    @property
    def queue_share(self) -> float:
        """Fraction of end-to-end latency that was queueing."""
        if self.total_us <= 0.0:
            return 0.0
        return self.total_queue_us / self.total_us

    def add(self, victim: Tuple[str, Optional[str]], span: Span,
            resource: str, host: Optional[str], us: float) -> None:
        """Blame ``us`` of ``victim``'s queueing on ``resource`` at
        ``host`` on the occupants ``span`` queued behind."""
        self.total_queue_us += us
        cells = self.cells
        shares = _culprit_shares(span, resource, host)
        if not shares:
            key = victim + UNKNOWN_CULPRIT + (resource, host)
            cells[key] = cells.get(key, 0.0) + us
            return
        for culprit, frac in shares:
            key = victim + culprit + (resource, host)
            cells[key] = cells.get(key, 0.0) + us * frac

    def conservation_error(self) -> float:
        """Relative |sum(cells) - sum(queue segments)|; float dust only."""
        return (abs(self.blamed_us - self.total_queue_us)
                / max(self.total_queue_us, 1e-9))

    def top_culprits(self, n: Optional[int] = 15) -> List[
            Tuple[Tuple[str, Optional[str], str], float]]:
        """(culprit op, culprit tenant, resource) -> us, largest first
        (the top ``n``; None: all)."""
        agg: Dict[Tuple[str, Optional[str], str], float] = {}
        for (_vo, _vt, c_op, c_ten, res, _host), us in self.cells.items():
            key = (c_op, c_ten, res)
            agg[key] = agg.get(key, 0.0) + us
        ranked = sorted(agg.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "",
                                        kv[0][2]))
        return ranked[:n]

    def victim_totals(self) -> Dict[Tuple[str, Optional[str]], float]:
        """(victim op, victim tenant) -> blamed us."""
        out: Dict[Tuple[str, Optional[str]], float] = {}
        for (v_op, v_ten, _co, _ct, _res, _host), us in self.cells.items():
            key = (v_op, v_ten)
            out[key] = out.get(key, 0.0) + us
        return out

    def tenant_matrix(self) -> Dict[Tuple[Optional[str], Optional[str]],
                                    float]:
        """(victim tenant, culprit tenant) -> us: the interference-share
        rollup multitenant runs read (None = untenanted work)."""
        out: Dict[Tuple[Optional[str], Optional[str]], float] = {}
        for (_vo, v_ten, _co, c_ten, _res, _host), us in self.cells.items():
            key = (v_ten, c_ten)
            out[key] = out.get(key, 0.0) + us
        return out

    def interference_us(self) -> float:
        """Queue time blamed on a *different* op type or tenant than the
        victim's own — cross-traffic interference, as opposed to
        self-contention within one op population."""
        return sum(
            us for (v_op, v_ten, c_op, c_ten, _r, _h), us
            in self.cells.items() if (v_op, v_ten) != (c_op, c_ten))


def _culprit_shares(span: Span, resource: str, host: Optional[str]
                    ) -> List[Tuple[Tuple[str, Optional[str]], float]]:
    """``((op, tenant), fraction)`` per occupant ``span`` queued behind on
    ``resource`` at ``host``, in tag order, fractions summing to 1; empty
    when no tagged time matches."""
    tags = span.queue_by
    if not tags:
        return []
    shares = [((op, tenant), us)
              for (op, tenant, res, t_host), us in tags.items()
              if res == resource and t_host == host and us > 0.0]
    total = sum(us for _culprit, us in shares)
    if total <= 0.0:
        return []
    return [(culprit, us / total) for culprit, us in shares]


def render_blame_exemplar(crit: CritPath,
                          root: Optional[Span] = None) -> List[str]:
    """One victim op's path with each queue segment naming its culprits —
    the drill-down behind the aggregated matrix."""
    root = root or crit.exemplar_root()
    if root is None:
        return ["(no completed ops traced)"]
    attrs = root.attrs
    tenant = attrs.get("tenant") if attrs else None
    who = f"{root.name}" + (f" [tenant {tenant}]" if tenant else "")
    lines = [f"{who}  {root.duration_us:.1f}us end-to-end"]

    def culprits_of(span: Span, resource: str,
                    host: Optional[str]) -> str:
        shares = sorted(_culprit_shares(span, resource, host),
                        key=lambda cf: (-cf[1], cf[0][0], cf[0][1] or ""))
        if not shares:
            return "(unknown)"
        return ", ".join(op + (f"/{ten}" if ten else "") + f" {frac:.0%}"
                         for (op, ten), frac in shares[:3])

    for span, depth, segments in crit.path_tree(root):
        segs = []
        for host, frame, kind, us, _blocked in segments:
            resource = _queue_resource(frame, kind)
            if resource is None or us <= 0.005:
                continue
            where = f"@{host}" if host else ""
            segs.append(f"{kind}{where} {us:.1f}us <- "
                        f"{culprits_of(span, resource, host)}")
        if depth and (segs or crit.index.gating_children(span)):
            detail = "; ".join(segs) if segs else "-"
            lines.append(f"{'  ' * depth}{span.name}  [{detail}]")
        elif not depth and segs:
            lines.append(f"  queued: {'; '.join(segs)}")
    return lines


# ---------------------------------------------------------------------------
# Contrast: gating profile vs total-cost profile -> off-path slack.
# ---------------------------------------------------------------------------

class ContrastRow:
    """One (host, kind) alignment of gated vs total attributed cost."""

    __slots__ = ("host", "kind", "gated_us", "total_us")

    def __init__(self, host: Optional[str], kind: str,
                 gated_us: float, total_us: float):
        self.host = host
        self.kind = kind
        self.gated_us = gated_us
        self.total_us = total_us

    @property
    def offpath_us(self) -> float:
        """Attributed cost never on any op's path: the center's slack —
        work you can speed up without moving client latency."""
        return max(0.0, self.total_us - self.gated_us)

    @property
    def gated_frac(self) -> float:
        """Fraction of this center's cost that gates latency."""
        if self.total_us <= 0.0:
            return 0.0
        return min(1.0, self.gated_us / self.total_us)


def contrast_with_profile(crit: CritPath, profile) -> List[ContrastRow]:
    """Align the gating profile with a :class:`~repro.sim.profile.CostProfile`
    at (host, kind) granularity, largest off-path slack first.

    ``idle`` is excluded on both sides (it is a residual, not a cost) and
    the centers blocked-on segments landed on (``crit.blocked_centers``)
    are excluded from the gated side: their cost is *attributed* on the
    worker process's own spans (raft.flush fsync, raft.msg wire...), so
    including the waiter's view too would double count.  What remains
    compares like-for-like: cost charged at sim sites, split by whether
    any op's path ran through it.
    """
    total: Dict[Tuple[Optional[str], str], float] = {}
    for (host, _frame, kind), us in profile.centers.items():
        if kind == "idle":
            continue
        key = (host, kind)
        total[key] = total.get(key, 0.0) + us
    gated: Dict[Tuple[Optional[str], str], float] = {}
    for center, us in crit.gated.items():
        host, _frame, kind = center
        if kind == "idle" or center in crit.blocked_centers:
            continue
        key = (host, collapse_kind(kind))
        gated[key] = gated.get(key, 0.0) + us
    rows = [ContrastRow(host, kind, gated.get((host, kind), 0.0), us)
            for (host, kind), us in total.items()]
    rows.sort(key=lambda r: (-r.offpath_us, r.host or "", r.kind))
    return rows


# ---------------------------------------------------------------------------
# What-if: first-order prediction of a virtual speedup.
# ---------------------------------------------------------------------------

def component_of(host: Optional[str], frame: str,
                 kind: str) -> Optional[str]:
    """Map a gating center to the override component that scales it.

    Returns ``None`` for centers no single cost constant controls:
    ``idle``, latch queueing (serialisation, not a cost), the Raft batch
    window (config, not a cost) and the undecomposed ``raft.commit``
    fallback.  ``raft.replicate`` — wire-only now that follower fsync/cpu
    are split out via the AppendReply piggyback — maps to ``net.rtt``.
    Queue segments map to the component of the resource they waited on
    (first-order: waits shrink with service time).
    """
    if kind == "idle":
        return None
    if frame in ("raft.queue", "raft.commit"):
        return None
    if kind == "wire":
        return "net.rtt"
    resource = None
    if kind.startswith("queue"):
        resource = kind.partition(":")[2]
        if resource in ("", "latch"):
            return None
    host = host or ""
    if kind == "fsync" or resource == "disk":
        if "tafdb" in host:
            return "tafdb.fsync"
        return "raft.fsync"  # IndexNode/dir-server disks hold Raft logs
    # cpu (or queue:cpu) by host class; raft frames override the host.
    if frame.startswith("raft."):
        return "raft.cpu"
    if "tafdb" in host:
        return "tafdb.cpu"
    if "indexnode" in host or "dir" in host or "coordinator" in host:
        return "index.cpu"
    if "proxy" in host:
        return "proxy.cpu"
    return None


class Prediction:
    """First-order what-if estimate for one override set."""

    __slots__ = ("overrides", "baseline_mean_us", "ops", "gain_us_per_op",
                 "matched_us_per_op")

    def __init__(self, overrides: CostOverrides, baseline_mean_us: float,
                 ops: int, gain_us_per_op: float,
                 matched_us_per_op: Dict[str, float]):
        self.overrides = overrides
        self.baseline_mean_us = baseline_mean_us
        self.ops = ops
        self.gain_us_per_op = gain_us_per_op
        self.matched_us_per_op = matched_us_per_op

    @property
    def predicted_mean_us(self) -> float:
        return max(0.0, self.baseline_mean_us - self.gain_us_per_op)

    @property
    def predicted_latency_delta_frac(self) -> float:
        """Predicted relative latency reduction (0.31 = 31% faster)."""
        if self.baseline_mean_us <= 0.0:
            return 0.0
        return self.gain_us_per_op / self.baseline_mean_us

    @property
    def predicted_throughput_ratio(self) -> float:
        """Closed-loop throughput multiplier: clients are latency-bound,
        so throughput scales inversely with mean latency."""
        predicted = self.predicted_mean_us
        if predicted <= 0.0:
            return float("inf")
        return self.baseline_mean_us / predicted


def predict_speedup(crit: CritPath, overrides: CostOverrides) -> Prediction:
    """Predict the latency delta of ``overrides`` from gating slack alone.

    First-order model: a center gated for ``g`` microseconds per run,
    scaled by factor ``f``, returns ``g * (1 - 1/f)`` of latency.  Centers
    that map to no overridden component predict zero — which is the whole
    point for off-path overrides.
    """
    factors = overrides.as_dict()
    for component in factors:
        if component not in COMPONENT_FIELDS:  # pragma: no cover
            raise ValueError(f"unknown component {component!r}")
    ops = max(crit.ops, 1)
    gain = 0.0
    matched: Dict[str, float] = {component: 0.0 for component in factors}
    for (host, frame, kind), us in crit.gated.items():
        component = component_of(host, frame, kind)
        if component is None:
            continue
        factor = factors.get(component)
        if factor is None:
            continue
        matched[component] += us / ops
        gain += (us / ops) * (1.0 - 1.0 / factor)
    return Prediction(overrides, crit.mean_latency_us, crit.ops, gain,
                      matched)


# ---------------------------------------------------------------------------
# Queueing-aware correction: the closed-loop bottleneck bound.
# ---------------------------------------------------------------------------

class Station:
    """One service station (host x cpu|disk) in the bottleneck-law view."""

    __slots__ = ("host", "resource", "demand_us", "scaled_demand_us",
                 "utilization", "mean_queue")

    def __init__(self, host: str, resource: str, demand_us: float,
                 scaled_demand_us: float, utilization: float,
                 mean_queue: float):
        self.host = host
        self.resource = resource
        #: Measured per-op service demand busy_us / (ops * capacity).
        self.demand_us = demand_us
        #: Demand after subtracting the overridden components' saved work.
        self.scaled_demand_us = scaled_demand_us
        self.utilization = utilization
        self.mean_queue = mean_queue


class CorrectedPrediction:
    """Slack prediction floored by the closed-loop bottleneck law.

    The first-order slack model shrinks every gated microsecond
    independently — open-loop, so past the saturation knee it
    over-predicts (~2x): shrinking one center raises throughput, which
    refills the bottleneck queue.  But a closed system of ``clients``
    concurrent requesters cannot respond faster than the bottleneck
    law allows: with per-op demand ``D_i = busy_us_i / (ops *
    capacity_i)`` at each station, throughput is capped at ``1 /
    max(D_i)`` per client slot, i.e. mean latency is floored at
    ``clients * max(D_i')`` where ``D_i'`` is the demand *after* the
    override removes its share of service time.  The corrected estimate
    is simply ``max(slack prediction, bottleneck floor)``: at knee
    points the floor is slack (the slack model already holds to ~10%),
    deep in saturation the floor binds and removes the ~2x optimism.
    """

    __slots__ = ("slack", "clients", "stations", "bottleneck_mean_us")

    def __init__(self, slack: Prediction, clients: int,
                 stations: List[Station], bottleneck_mean_us: float):
        self.slack = slack
        self.clients = clients
        self.stations = stations
        self.bottleneck_mean_us = bottleneck_mean_us

    @property
    def predicted_mean_us(self) -> float:
        return max(self.slack.predicted_mean_us, self.bottleneck_mean_us)

    @property
    def bound_binding(self) -> bool:
        """True when the bottleneck floor (not slack) sets the estimate —
        i.e. the run is past the knee and the correction is doing work."""
        return self.bottleneck_mean_us > self.slack.predicted_mean_us

    def bottleneck(self) -> Optional[Station]:
        """The station with the largest post-override demand."""
        if not self.stations:
            return None
        return max(self.stations,
                   key=lambda s: (s.scaled_demand_us, s.host, s.resource))


#: Busy-time telemetry behind each station resource.
_STATION_METRICS = (("host.cpu_busy_us", "cpu"),
                    ("host.disk_busy_us", "disk"))


def predict_speedup_corrected(crit: CritPath, overrides: CostOverrides,
                              profile, telemetry, clients: int,
                              ) -> CorrectedPrediction:
    """Queueing-aware what-if: slack prediction + bottleneck-law floor.

    ``profile`` is the run's total-cost :class:`~repro.sim.profile.CostProfile`
    (same charge sites as the ``host.*_busy_us`` telemetry counters, so the
    component split of busy time is exact); ``telemetry`` supplies measured
    busy microseconds, capacities and queue depths; ``clients`` is the
    closed-loop population that drove the run.
    """
    slack = predict_speedup(crit, overrides)
    factors = overrides.as_dict()
    ops = max(crit.ops, 1)
    elapsed = max((root.end_us or 0.0 for root, _us in crit.root_paths),
                  default=0.0)

    # Busy time each override removes, per station: profile centers are
    # total attributed cost (on- and off-path), exactly what the busy
    # counters integrate, so subtracting the overridden components' share
    # scales the measured demand without re-deriving it from the model.
    saved: Dict[Tuple[str, str], float] = {}
    for (host, frame, kind), us in profile.centers.items():
        if kind == "cpu":
            resource = "cpu"
        elif kind == "fsync":
            resource = "disk"
        else:
            continue
        component = component_of(host, frame, kind)
        factor = factors.get(component) if component else None
        if factor is None or host is None:
            continue
        key = (host, resource)
        saved[key] = saved.get(key, 0.0) + us * (1.0 - 1.0 / factor)

    stations: List[Station] = []
    for metric, resource in _STATION_METRICS:
        for host in sorted(telemetry.hosts(metric)):
            counter = telemetry.find(metric, host)
            if counter is None or counter.total <= 0.0:
                continue
            capacity = counter.capacity if counter.capacity > 0 else 1.0
            busy = counter.total
            scaled_busy = max(0.0, busy - saved.get((host, resource), 0.0))
            gauge = telemetry.find("resource.queued." + resource, host)
            stations.append(Station(
                host, resource,
                demand_us=busy / (ops * capacity),
                scaled_demand_us=scaled_busy / (ops * capacity),
                utilization=(busy / (elapsed * capacity)
                             if elapsed > 0 else 0.0),
                mean_queue=gauge.mean_over() if gauge is not None else 0.0))

    d_max = max((s.scaled_demand_us for s in stations), default=0.0)
    return CorrectedPrediction(slack, clients, stations, clients * d_max)


# ---------------------------------------------------------------------------
# JSON export + validator.
# ---------------------------------------------------------------------------

def center_rows(crit: CritPath, n: Optional[int] = None) -> List[dict]:
    """The ``n`` top gating centers (all by default) as JSON rows."""
    shares = crit.shares()
    return [{"host": host, "frame": frame, "kind": kind,
             "gated_us": round(us, 3),
             "share": round(shares[(host, frame, kind)], 6)}
            for (host, frame, kind), us in
            crit.top_gating(n)]


def culprit_rows(blame: BlameMatrix, n: Optional[int] = None) -> List[dict]:
    """The ``n`` top culprits (all by default) as JSON rows."""
    total_queue = blame.total_queue_us
    return [{"culprit_op": c_op, "culprit_tenant": c_ten,
             "resource": resource, "us": round(us, 3),
             "share": round(us / total_queue, 6) if total_queue > 0
             else 0.0}
            for (c_op, c_ten, resource), us in
            blame.top_culprits(n)]


def to_critpath_payload(crit: CritPath,
                        contrast: Optional[List[ContrastRow]] = None) -> dict:
    """Render the gating profile (and optional contrast) as JSON.

    Values are rounded after aggregation and centers are sorted, so — with
    the simulation itself deterministic — the payload is byte-identical
    across runs (and on the all-heap test oracle, ``tests/oracle.py``).
    """
    payload = {
        "name": crit.name,
        "ops": crit.ops,
        "op_failures": crit.op_failures,
        "ops_by_name": dict(sorted(crit.ops_by_name.items())),
        "total_us": round(crit.total_us, 3),
        "mean_latency_us": round(crit.mean_latency_us, 3),
        "centers": center_rows(crit),
        "exemplar": crit.render_exemplar(),
    }
    if contrast is not None:
        payload["contrast"] = [
            {"host": row.host, "kind": row.kind,
             "gated_us": round(row.gated_us, 3),
             "total_us": round(row.total_us, 3),
             "offpath_us": round(row.offpath_us, 3)}
            for row in contrast
        ]
    return payload


_CENTER_SHAPE = {"host": "str?", "frame": "str", "kind": "str",
                 "gated_us": "num>=0", "share": "share"}

CRITPATH_SHAPE = {
    "ops": "int>=0",
    "op_failures": "int>=0",
    "total_us": "num>=0",
    "mean_latency_us": "num>=0",
    "centers": [_CENTER_SHAPE],
    "exemplar": ["text"],
    "contrast?": [{"gated_us": "num>=0", "total_us": "num>=0",
                   "offpath_us": "num>=0"}],
}


def _exceeds(us: Any, total: Any) -> bool:
    """A rounded part claiming more than its rounded total."""
    return isinstance(us, (int, float)) and \
        isinstance(total, (int, float)) and us > total * (1 + 1e-6) + 1e-3


def _share_sum(items: List[Tuple[str, dict]]) -> float:
    return sum(item["share"] for _where, item in items
               if isinstance(item.get("share"), (int, float)))


def validate_critpath(payload: Any) -> List[str]:
    """Schema-check a critical-path payload; returns a list of problems.

    Beyond :data:`CRITPATH_SHAPE`, checks the load-bearing invariant the
    export must carry: center shares sum to ~1 of end-to-end latency
    (when any ops completed) and no center claims more than the total.
    """
    problems = check_shape(payload, CRITPATH_SHAPE)
    centers = shape_items(payload, "centers")
    total_us = payload.get("total_us") if isinstance(payload, dict) else None
    for where, center in centers:
        if _exceeds(center.get("gated_us"), total_us or 0.0):
            problems.append(f"{where}: gated_us {center['gated_us']} "
                            f"exceeds total_us")
    if centers and isinstance(total_us, (int, float)) and total_us > 0 \
            and abs(_share_sum(centers) - 1.0) > 1e-3:
        problems.append(f"center shares sum to {_share_sum(centers):.6f}, "
                        f"not 1")
    return problems


def to_blame_payload(crit: CritPath) -> dict:
    """Render a critical path's blame matrix as JSON (rounded after
    aggregation, cells sorted), byte-identical across runs like the
    critpath payload."""
    blame = crit.blame
    total_queue = blame.total_queue_us

    def cell_row(key: BlameKey, us: float) -> dict:
        v_op, v_ten, c_op, c_ten, resource, host = key
        return {"victim_op": v_op, "victim_tenant": v_ten,
                "culprit_op": c_op, "culprit_tenant": c_ten,
                "resource": resource, "host": host,
                "us": round(us, 3),
                "share": round(us / total_queue, 6) if total_queue > 0
                else 0.0}

    cells = [cell_row(key, us) for key, us in sorted(
        blame.cells.items(),
        key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "", kv[0][2],
                        kv[0][3] or "", kv[0][4], kv[0][5] or ""))]
    tenants = [
        {"victim_tenant": v_ten, "culprit_tenant": c_ten,
         "us": round(us, 3)}
        for (v_ten, c_ten), us in sorted(
            blame.tenant_matrix().items(),
            key=lambda kv: (-kv[1], kv[0][0] or "", kv[0][1] or ""))
    ]
    return {
        "name": blame.name,
        "ops": blame.ops,
        "total_us": round(blame.total_us, 3),
        "total_queue_us": round(total_queue, 3),
        "queue_share": round(blame.queue_share, 6),
        "interference_us": round(blame.interference_us(), 3),
        "conservation_error": blame.conservation_error(),
        "cells": cells,
        "top_culprits": culprit_rows(blame),
        "tenant_matrix": tenants,
        "exemplar": render_blame_exemplar(crit),
    }


BLAME_SHAPE = {
    "ops": "int>=0",
    "total_us": "num>=0",
    "total_queue_us": "num>=0",
    "queue_share": "num>=0",
    "interference_us": "num>=0",
    "conservation_error": "num>=0",
    "cells": [{"victim_op": "str", "culprit_op": "str", "resource": "str",
               "victim_tenant": "str?", "culprit_tenant": "str?",
               "host": "str?", "us": "num>=0", "share": "share"}],
    "top_culprits": [],
    "tenant_matrix": [],
    "exemplar": ["text"],
}


def validate_blame(payload: Any) -> List[str]:
    """Schema-check a blame payload; returns a list of problems.

    Beyond :data:`BLAME_SHAPE`, carries the conservation invariant into
    the export: cell microseconds must sum back to ``total_queue_us`` (to
    rounding dust — each cell is rounded to 1e-3, so the tolerance scales
    with the cell count), and no cell or share may exceed the total.
    """
    problems = check_shape(payload, BLAME_SHAPE)
    cells = shape_items(payload, "cells")
    total_queue = payload.get("total_queue_us") \
        if isinstance(payload, dict) else None
    for where, cell in cells:
        if _exceeds(cell.get("us"), total_queue or 0.0):
            problems.append(f"{where}: us {cell['us']} exceeds "
                            f"total_queue_us")
    if isinstance(total_queue, (int, float)) and total_queue > 0:
        cell_sum = sum(cell["us"] for _where, cell in cells
                       if isinstance(cell.get("us"), (int, float))
                       and cell["us"] >= 0)
        dust = 1e-3 * (len(cells) + 1) + total_queue * 1e-6
        if abs(cell_sum - total_queue) > dust:
            problems.append(
                f"cells sum to {cell_sum:.3f}us, not total_queue_us "
                f"{total_queue:.3f} (tolerance {dust:.3f})")
        if cells and abs(_share_sum(cells) - 1.0) > 1e-3:
            problems.append(f"cell shares sum to {_share_sum(cells):.6f}, "
                            f"not 1")
    return problems
