"""Measurement plumbing: latency recorders, per-op contexts, metric sets.

The paper reports three views of performance; this module records the
first two:

* throughput (ops completed / simulated wall time) — Figures 12, 14, 19;
* latency distributions — Figure 11, 17, 18.

The third, per-phase latency breakdown into lookup / loop-detection /
execution (Figures 4a, 13, 15, 17), is the tracer's fold of ``phase``
spans as each op ends (:class:`repro.sim.trace.OpAggregate`);
:class:`OpContext` marks the phases and defines their canonical names
here.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Canonical phase names used by every system so breakdowns line up.
PHASE_LOOKUP = "lookup"
PHASE_LOOP_DETECT = "loop_detect"
PHASE_EXECUTION = "execution"


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)


class LatencyRecorder:
    """Accumulates latency samples for one operation's stream."""

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def _ensure_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    def p(self, pct: float) -> float:
        if not self._samples:
            return 0.0
        return percentile(self._ensure_sorted(), pct)

    @property
    def p50(self) -> float:
        return self.p(50)

    @property
    def p99(self) -> float:
        return self.p(99)

    @property
    def p999(self) -> float:
        return self.p(99.9)

    @property
    def stddev(self) -> float:
        """Population standard deviation (0 for fewer than two samples)."""
        n = len(self._samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self._samples) / n)

    def summary(self) -> Dict[str, float]:
        """Empty-safe scalar digest (all zeros when no samples)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
            "min": self.min,
            "stddev": self.stddev,
            "total": self.total,
        }

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold`` (tail mass)."""
        if not self._samples:
            return 0.0
        data = self._ensure_sorted()
        idx = bisect.bisect_right(data, threshold)
        return (len(data) - idx) / len(data)


class OpContext:
    """Per-operation measurement context threaded through orchestration code.

    Records RPC rounds (Table 1) and retries, and marks phases::

        ctx.begin(PHASE_LOOKUP, sim.now)
        ...
        ctx.end(PHASE_LOOKUP, sim.now)

    A phase is recorded only as a ``phase``-category child span of the
    operation's root span (``trace``/``tracer``, attached by
    ``MetadataSystem.perform`` under an enabled tracer); untraced, the
    markers cost one test each.  The tracer folds those spans into
    per-phase breakdowns as each op ends
    (:attr:`repro.sim.trace.Tracer.aggregates`).
    """

    __slots__ = ("op", "rpcs", "retries", "start", "finish", "trace",
                 "tracer", "_phase_spans")

    def __init__(self, op: str = ""):
        self.op = op
        self.rpcs = 0
        self.retries = 0
        self.start: Optional[float] = None
        self.finish: Optional[float] = None
        #: Root span of this operation (None while tracing is off).
        self.trace = None
        #: The tracer owning ``trace`` (None while tracing is off).
        self.tracer = None
        self._phase_spans: Optional[Dict[str, object]] = None

    def begin(self, phase: str, now: float) -> None:
        if self.trace is None:
            return
        if self._phase_spans is None:
            self._phase_spans = {}
        self._phase_spans[phase] = self.tracer.begin(
            phase, now, category="phase", parent=self.trace)

    def end(self, phase: str, now: float) -> None:
        if self.trace is None:
            return
        span = self._phase_spans.pop(phase, None) \
            if self._phase_spans else None
        if span is None:
            raise ValueError(f"phase {phase!r} was not begun")
        self.tracer.end(span, now)

    @property
    def latency(self) -> float:
        if self.start is None or self.finish is None:
            return 0.0
        return self.finish - self.start


class MetricSet:
    """All measurements from one benchmark run of one system."""

    def __init__(self):
        self.latency: Dict[str, LatencyRecorder] = {}
        self.rpc_rounds: Dict[str, LatencyRecorder] = {}
        # Failed operations' latencies, kept apart so the work spent on
        # failures is not silently dropped.
        self.failed_latency: Dict[str, LatencyRecorder] = {}
        self.ops_completed = 0
        self.ops_failed = 0
        self.retries = 0
        self.started_at = 0.0
        self.finished_at = 0.0

    def record(self, ctx: OpContext) -> None:
        self.ops_completed += 1
        self.retries += ctx.retries
        op = ctx.op
        latency = self.latency.get(op)
        if latency is None:
            latency = self.latency[op] = LatencyRecorder(op)
            self.rpc_rounds[op] = LatencyRecorder(op)
        latency.add(ctx.latency)
        self.rpc_rounds[op].add(float(ctx.rpcs))

    def record_failure(self, ctx: OpContext) -> None:
        self.ops_failed += 1
        self.retries += ctx.retries
        op = ctx.op
        failed = self.failed_latency.get(op)
        if failed is None:
            failed = self.failed_latency[op] = LatencyRecorder(op)
        failed.add(ctx.latency)

    @property
    def duration_us(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    def throughput_kops(self, op: Optional[str] = None) -> float:
        """Completed operations per second, in Kop/s of simulated time."""
        if self.duration_us <= 0:
            return 0.0
        if op is None:
            done = self.ops_completed
        else:
            done = self.latency[op].count if op in self.latency else 0
        return done / self.duration_us * 1e6 / 1e3

    def mean_latency_us(self, op: str) -> float:
        rec = self.latency.get(op)
        return rec.mean if rec else 0.0

    def mean_rpcs(self, op: str) -> float:
        rec = self.rpc_rounds.get(op)
        return rec.mean if rec else 0.0
