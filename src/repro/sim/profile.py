"""Cost-center profiling: fold finished span trees into flame graphs.

The tracer (:mod:`repro.sim.trace`) answers *what happened when*; this
module answers *where every simulated microsecond went*.  A
:class:`CostProfile` folds a tracer's finished spans into

* **self-times** on the dynamic span tree of a
  :class:`~repro.sim.trace.SpanIndex` (``docs/observability.md``, "One
  span index"): sibling intervals are disjoint, so the sum of self-times
  over a tree equals the root's duration *exactly*
  (``tests/sim/test_profile.py`` pins it down).
* **cost kinds** — the cpu / fsync / wire / queue charges the sim layer
  attributed to each span while it was innermost, plus a derived
  ``idle`` residual (self-time not explained by any charge: think blocked
  on a child process or a raft commit wait).
* **cost centers** — (host, frame, kind) aggregates, where the host is the
  one the charge named (the server doing the work, not the span's label).

Exports come in two interchange formats, each with a schema validator:

* collapsed-stack (``frame;frame;[kind] value`` — flamegraph.pl /
  ``inferno-flamegraph`` input), and
* speedscope JSON (https://www.speedscope.app "sampled" profiles).

:func:`diff_profiles` aligns two profiles by (frame, kind) — hosts are
dropped because they differ across systems — and normalises by completed
operations, so deltas read directly as "extra microseconds per op" and the
per-frame span counts as "extra RPCs per op".  That is what lets
``mantle-exp explain fig12 --view profile --diff mantle infinifs`` name the
mechanisms behind the knee gap instead of restating the throughput numbers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import (
    CAT_OP,
    NONEMPTY,
    SpanIndex,
    check_shape,
    shape_items,
)

#: Every cost kind a charge can carry, plus the derived residual.
COST_KINDS = ("cpu", "fsync", "wire", "queue", "idle")

#: Synthetic root frame for charges that hit an empty span stack.
UNATTRIBUTED_FRAME = "(unattributed)"

#: speedscope's published schema URL (the ``$schema`` key it expects).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _frame(name: str) -> str:
    """Collapsed-stack frames may not contain separators; sanitise."""
    return name.replace(" ", "_").replace(";", ":")


class FrameCost:
    """Per-frame rollup: span count and self-time (the per-kind split is
    :meth:`CostProfile.frame_kind_totals`)."""

    __slots__ = ("frame", "spans", "self_us")

    def __init__(self, frame: str):
        self.frame = frame
        self.spans = 0
        self.self_us = 0.0


class CostProfile:
    """A folded cost profile of one instrumented run.

    Attributes
    ----------
    centers:
        (host, frame, kind) -> self-attributed simulated microseconds.
    stacks:
        (frame tuple, kind) -> microseconds; the flame-graph input.
    frames:
        frame name -> :class:`FrameCost` rollup.
    ops / op_failures:
        completed / failed ``op``-category root spans (the per-op
        normaliser for diffs).
    total_root_us / total_self_us:
        summed dynamic-root durations and summed self-times; equal up to
        float addition order (the conservation invariant).
    unattributed:
        (host, kind) -> microseconds charged while no sampled span was
        open; folded into ``centers``/``stacks`` under
        :data:`UNATTRIBUTED_FRAME` but kept separately for reconciliation.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.op_failures = 0
        self.span_count = 0
        self.total_root_us = 0.0
        self.total_self_us = 0.0
        self.centers: Dict[Tuple[Optional[str], str, str], float] = {}
        self.stacks: Dict[Tuple[Tuple[str, ...], str], float] = {}
        self.frames: Dict[str, FrameCost] = {}
        self.unattributed: Dict[Tuple[Optional[str], str], float] = {}

    # -- derived views -----------------------------------------------------

    def cost_by_kind(self) -> Dict[str, float]:
        """kind -> total microseconds (charges + idle + unattributed)."""
        out: Dict[str, float] = {}
        for (_host, _frame, kind), us in self.centers.items():
            out[kind] = out.get(kind, 0.0) + us
        return out

    def cpu_by_host(self) -> Dict[Optional[str], float]:
        """host -> cpu self-time, including the unattributed bucket.

        This is the series that must reconcile with telemetry's
        ``host.cpu_busy_us`` counters: both are incremented with the same
        ``us`` at the same :meth:`~repro.sim.host.Host.work` sites.
        """
        out: Dict[Optional[str], float] = {}
        for (host, _frame, kind), us in self.centers.items():
            if kind == "cpu":
                out[host] = out.get(host, 0.0) + us
        return out

    def frame_kind_totals(self) -> Dict[Tuple[str, str], float]:
        """(frame, kind) -> microseconds, hosts summed out (diff alignment)."""
        out: Dict[Tuple[str, str], float] = {}
        for (_host, frame, kind), us in self.centers.items():
            key = (frame, kind)
            out[key] = out.get(key, 0.0) + us
        return out

    def top_self(self, n: int = 15) -> List[Tuple[str, str, float]]:
        """The ``n`` hottest (frame, kind, us) centers by self cost."""
        totals = self.frame_kind_totals()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(frame, kind, us) for (frame, kind), us in ranked[:n]]

    def conservation_error(self) -> float:
        """Relative |sum(self) - sum(root durations)|; ~1e-16 in practice."""
        return (abs(self.total_self_us - self.total_root_us)
                / max(self.total_root_us, 1e-9))


def build_profile(index: SpanIndex,
                  unattributed: Optional[Dict[Tuple[Optional[str], str],
                                              float]] = None,
                  name: str = "") -> CostProfile:
    """Fold an indexed span set (plus the tracer's unattributed charges)
    into a :class:`CostProfile`: per-center totals over the index's
    dynamic tree.

    Spans with no dynamic parent in the set (true roots, spans begun in
    freshly spawned processes, or orphans whose parent fell out of the
    ring) are dynamic roots; conservation holds per present tree.
    """
    profile = CostProfile(name)
    profile.span_count = len(index.spans)
    for root in index.dyn_roots():
        profile.total_root_us += root.duration_us
    paths = index.dyn_paths(_frame)
    dyn_self_us = index.dyn_self_us
    centers = profile.centers
    stacks = profile.stacks
    for span in index.spans:
        stack = paths[span]
        frame = stack[-1]
        self_us = dyn_self_us(span)
        if self_us < 0.0:
            self_us = 0.0  # float dust only; nesting forbids real negatives
        fc = profile.frames.get(frame)
        if fc is None:
            fc = profile.frames[frame] = FrameCost(frame)
        fc.spans += 1
        fc.self_us += self_us
        if span.category == CAT_OP:
            if span.ok:
                profile.ops += 1
            else:
                profile.op_failures += 1
        profile.total_self_us += self_us
        charged = 0.0
        if span.costs:
            for (kind, host), us in span.costs.items():
                charged += us
                key = (host, frame, kind)
                centers[key] = centers.get(key, 0.0) + us
                skey = (stack, kind)
                stacks[skey] = stacks.get(skey, 0.0) + us
        idle = self_us - charged
        if idle > 0.0:
            key = (span.host, frame, "idle")
            centers[key] = centers.get(key, 0.0) + idle
            skey = (stack, "idle")
            stacks[skey] = stacks.get(skey, 0.0) + idle
    if unattributed:
        for (host, kind), us in unattributed.items():
            if us <= 0.0:
                continue
            profile.unattributed[(host, kind)] = us
            key = (host, UNATTRIBUTED_FRAME, kind)
            centers[key] = centers.get(key, 0.0) + us
            skey = ((UNATTRIBUTED_FRAME,), kind)
            stacks[skey] = stacks.get(skey, 0.0) + us
    return profile


def profile_from_tracer(tracer, name: str = "") -> CostProfile:
    """Fold one tracer's ring (and unattributed bucket) into a profile."""
    return build_profile(SpanIndex(tracer.spans), dict(tracer.unattributed),
                         name=name)


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph.pl) export.
# ---------------------------------------------------------------------------

def to_folded(profile: CostProfile) -> List[str]:
    """Render the profile as collapsed-stack lines.

    Each cost kind becomes a synthetic leaf frame (``[cpu]``, ``[wire]``,
    ...) under the span stack, so flamegraph.pl renders kinds as distinct
    cells and the diff aligns on them.  Values are integer microseconds
    rounded *after* aggregation; lines are sorted, which (together with
    simulated-time determinism) makes the output byte-identical across
    kernels and repeat runs.  Zero-rounded lines are dropped — the format
    requires positive integers.
    """
    merged: Dict[str, int] = {}
    for (stack, kind), us in profile.stacks.items():
        line = ";".join(stack + (f"[{kind}]",))
        merged[line] = merged.get(line, 0) + int(round(us))
    return [f"{line} {value}" for line, value in sorted(merged.items())
            if value > 0]


def validate_folded(lines: Iterable[str]) -> List[str]:
    """Schema-check collapsed-stack lines; returns a list of problems.

    flamegraph.pl's actual contract: one ``stack value`` pair per line,
    semicolon-separated non-empty frames with no embedded spaces, and a
    positive integer value.
    """
    lines = list(lines)
    problems = check_shape(lines, ["str"], name="line")
    for i, line in enumerate(lines):
        if not isinstance(line, str) or not line:
            continue
        where = f"line[{i}]"
        stack, _sep, value = line.rpartition(" ")
        if not stack:
            problems.append(f"{where}: missing value field")
            continue
        if not value.isdigit() or int(value) <= 0:
            problems.append(f"{where}: value {value!r} is not a positive "
                            "integer")
        if " " in stack:
            problems.append(f"{where}: stack contains a space")
        if not all(stack.split(";")):
            problems.append(f"{where}: empty frame in stack {stack!r}")
    return problems


# ---------------------------------------------------------------------------
# speedscope export.
# ---------------------------------------------------------------------------

def to_speedscope(profile: CostProfile, name: str = "") -> dict:
    """Render the profile as a speedscope "sampled" profile.

    One sample per (stack, kind) with its microsecond total as the weight;
    frames are deduplicated into the shared frame table.  Deterministic for
    the same reasons as :func:`to_folded`.
    """
    samples_by_stack: Dict[Tuple[str, ...], int] = {}
    for (stack, kind), us in profile.stacks.items():
        full = stack + (f"[{kind}]",)
        samples_by_stack[full] = samples_by_stack.get(full, 0) + \
            int(round(us))
    ordered = sorted((stack, weight)
                     for stack, weight in samples_by_stack.items()
                     if weight > 0)
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    samples: List[List[int]] = []
    weights: List[int] = []
    for stack, weight in ordered:
        indexed = []
        for frame in stack:
            idx = frame_index.get(frame)
            if idx is None:
                idx = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            indexed.append(idx)
        samples.append(indexed)
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name or profile.name or "simulated cost profile",
            "unit": "microseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "exporter": "mantle-exp profile",
    }


#: What speedscope's importer requires of a "sampled" profile: the
#: ``$schema`` marker, a shared table of named frames, and per-profile
#: samples (non-empty frame-index lists) and non-negative weights.
SPEEDSCOPE_SHAPE = {
    "$schema": ("const", SPEEDSCOPE_SCHEMA, "missing or wrong $schema"),
    "shared": {"frames": [{"name": "str"}]},
    "profiles": [{
        "type": ("const", "sampled", "type must be 'sampled'"),
        "unit": ("enum", ("microseconds", "milliseconds", "seconds",
                          "nanoseconds", "bytes", "none"), "bad"),
        "samples": [["int>=0", NONEMPTY]],
        "weights": ["num>=0"],
    }, NONEMPTY],
}


def validate_speedscope(payload: Any) -> List[str]:
    """Schema-check a speedscope payload; returns a list of problems.

    Beyond :data:`SPEEDSCOPE_SHAPE`: samples and weights pair up and
    frame indices stay inside the shared frame table.
    """
    problems = check_shape(payload, SPEEDSCOPE_SHAPE)
    shared = payload.get("shared") if isinstance(payload, dict) else None
    frames = shared.get("frames") if isinstance(shared, dict) else None
    frames = len(frames) if isinstance(frames, list) else 0
    for where, prof in shape_items(payload, "profiles"):
        samples, weights = prof.get("samples"), prof.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            continue
        if len(samples) != len(weights):
            problems.append(f"{where}: {len(samples)} samples vs "
                            f"{len(weights)} weights")
        for s, sample in enumerate(samples):
            if isinstance(sample, list) and any(
                    isinstance(idx, int) and idx >= frames
                    for idx in sample):
                problems.append(f"{where}.samples[{s}]: frame index out "
                                f"of range")
    return problems


# ---------------------------------------------------------------------------
# Differential profiles.
# ---------------------------------------------------------------------------

class DiffRow:
    """One (frame, kind) alignment between two profiles, per-op normalised."""

    __slots__ = ("frame", "kind", "base_us_per_op", "other_us_per_op",
                 "base_spans_per_op", "other_spans_per_op")

    def __init__(self, frame: str, kind: str,
                 base_us_per_op: float, other_us_per_op: float,
                 base_spans_per_op: float, other_spans_per_op: float):
        self.frame = frame
        self.kind = kind
        self.base_us_per_op = base_us_per_op
        self.other_us_per_op = other_us_per_op
        self.base_spans_per_op = base_spans_per_op
        self.other_spans_per_op = other_spans_per_op

    @property
    def delta_us_per_op(self) -> float:
        """Signed cost gap: positive means ``other`` spends more here."""
        return self.other_us_per_op - self.base_us_per_op

    @property
    def delta_spans_per_op(self) -> float:
        return self.other_spans_per_op - self.base_spans_per_op


def diff_profiles(base: CostProfile, other: CostProfile) -> List[DiffRow]:
    """Align two profiles by (frame, kind) and return signed per-op deltas.

    Hosts are summed out before aligning (the two systems deploy different
    host sets), and every total is divided by the profile's completed-op
    count so a row reads as "microseconds of this cost per operation".
    Rows come back sorted by |delta|, largest first.
    """
    base_ops = max(base.ops, 1)
    other_ops = max(other.ops, 1)
    base_totals = base.frame_kind_totals()
    other_totals = other.frame_kind_totals()
    rows: List[DiffRow] = []
    for frame, kind in sorted(set(base_totals) | set(other_totals)):
        base_fc = base.frames.get(frame)
        other_fc = other.frames.get(frame)
        rows.append(DiffRow(
            frame, kind,
            base_totals.get((frame, kind), 0.0) / base_ops,
            other_totals.get((frame, kind), 0.0) / other_ops,
            (base_fc.spans / base_ops) if base_fc is not None else 0.0,
            (other_fc.spans / other_ops) if other_fc is not None else 0.0,
        ))
    rows.sort(key=lambda r: (-abs(r.delta_us_per_op), r.frame, r.kind))
    return rows
