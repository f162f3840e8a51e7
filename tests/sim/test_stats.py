"""Unit tests for the measurement plumbing (repro.sim.stats)."""

import pytest

from repro.sim.stats import (
    PHASE_EXECUTION,
    PHASE_LOOKUP,
    LatencyRecorder,
    MetricSet,
    OpContext,
    percentile,
)
from repro.sim.trace import Tracer


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0

    def test_median_of_two(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        data = sorted(float(i) for i in range(1, 101))
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 100.0

    def test_interpolation(self):
        assert percentile([0.0, 100.0], 25) == 25.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyRecorder:
    def test_basic_stats(self):
        rec = LatencyRecorder("op")
        rec.extend([1.0, 2.0, 3.0, 4.0])
        assert rec.count == 4
        assert rec.mean == 2.5
        assert rec.min == 1.0
        assert rec.max == 4.0
        assert rec.total == 10.0

    def test_percentiles_after_unsorted_adds(self):
        rec = LatencyRecorder()
        rec.extend([9.0, 1.0, 5.0])
        assert rec.p50 == 5.0
        assert rec.p(100) == 9.0

    def test_negative_sample_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.add(-1.0)

    def test_empty_recorder_reports_zeros(self):
        rec = LatencyRecorder()
        assert rec.mean == 0.0
        assert rec.p99 == 0.0

    def test_fraction_above(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0, 4.0])
        assert rec.fraction_above(2.0) == 0.5
        assert rec.fraction_above(100.0) == 0.0
        assert rec.fraction_above(0.0) == 1.0

    def test_sorted_cache_invalidated_by_add(self):
        rec = LatencyRecorder()
        rec.add(10.0)
        assert rec.p50 == 10.0
        rec.add(0.0)
        assert rec.p50 == 5.0

    def test_p999_separates_extreme_tail(self):
        rec = LatencyRecorder()
        rec.extend([1.0] * 999)
        rec.add(1000.0)
        assert rec.p99 == 1.0
        assert rec.p999 > 1.0

    def test_stddev(self):
        rec = LatencyRecorder()
        rec.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert rec.stddev == pytest.approx(2.0)
        single = LatencyRecorder()
        single.add(5.0)
        assert single.stddev == 0.0

    def test_summary_digest(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 3.0])
        digest = rec.summary()
        assert digest["count"] == 2.0
        assert digest["mean"] == 2.0
        assert digest["p50"] == 2.0
        assert digest["max"] == 3.0
        assert digest["total"] == 4.0
        assert digest["stddev"] == pytest.approx(1.0)

    def test_summary_empty_safe(self):
        digest = LatencyRecorder().summary()
        assert set(digest) == {"count", "mean", "p50", "p99", "p999",
                               "max", "min", "stddev", "total"}
        assert all(v == 0.0 for v in digest.values())


def _traced_ctx(op, tracer):
    """An OpContext under a root span, as ``MetadataSystem.perform``
    threads one when tracing is on."""
    ctx = OpContext(op)
    ctx.tracer = tracer
    ctx.trace = tracer.begin(op, 0.0, category="op")
    return ctx


class TestOpContext:
    def test_phase_accounting(self):
        tracer = Tracer()
        ctx = _traced_ctx("mkdir", tracer)
        ctx.begin(PHASE_LOOKUP, 100.0)
        ctx.end(PHASE_LOOKUP, 130.0)
        ctx.begin(PHASE_EXECUTION, 130.0)
        ctx.end(PHASE_EXECUTION, 180.0)
        tracer.end(ctx.trace, 180.0)
        agg = tracer.aggregates["mkdir"]
        assert agg.mean_phase_us(PHASE_LOOKUP) == 30.0
        assert agg.mean_phase_us(PHASE_EXECUTION) == 50.0

    def test_phase_reentry_accumulates(self):
        tracer = Tracer()
        ctx = _traced_ctx("op", tracer)
        ctx.begin(PHASE_LOOKUP, 0.0)
        ctx.end(PHASE_LOOKUP, 10.0)
        ctx.begin(PHASE_LOOKUP, 20.0)
        ctx.end(PHASE_LOOKUP, 25.0)
        tracer.end(ctx.trace, 30.0)
        assert tracer.aggregates["op"].mean_phase_us(PHASE_LOOKUP) == 15.0

    def test_end_without_begin_rejected(self):
        ctx = _traced_ctx("op", Tracer())
        with pytest.raises(ValueError):
            ctx.end(PHASE_LOOKUP, 1.0)

    def test_untraced_markers_are_no_ops(self):
        """Without a root span there is nothing to record (or to check an
        unmatched end against)."""
        ctx = OpContext("op")
        ctx.begin(PHASE_LOOKUP, 0.0)
        ctx.end(PHASE_LOOKUP, 10.0)
        ctx.end(PHASE_EXECUTION, 10.0)
        assert ctx._phase_spans is None

    def test_latency_requires_start_finish(self):
        ctx = OpContext("op")
        assert ctx.latency == 0.0
        ctx.start, ctx.finish = 10.0, 35.0
        assert ctx.latency == 25.0


class TestMetricSet:
    def _ctx(self, op, start, finish, rpcs=1):
        ctx = OpContext(op)
        ctx.start, ctx.finish = start, finish
        ctx.rpcs = rpcs
        return ctx

    def test_throughput_kops(self):
        ms = MetricSet()
        ms.started_at, ms.finished_at = 0.0, 1_000_000.0  # one second
        for i in range(500):
            ms.record(self._ctx("objstat", 0.0, 100.0))
        assert ms.throughput_kops() == pytest.approx(0.5)
        assert ms.throughput_kops("objstat") == pytest.approx(0.5)
        assert ms.throughput_kops("missing") == 0.0

    def test_mean_rpcs(self):
        ms = MetricSet()
        ms.record(self._ctx("objstat", 0, 10, rpcs=1))
        ms.record(self._ctx("objstat", 0, 10, rpcs=3))
        assert ms.mean_rpcs("objstat") == 2.0

    def test_failures_and_retries_counted(self):
        ms = MetricSet()
        ctx = self._ctx("mkdir", 0, 10)
        ctx.retries = 4
        ms.record_failure(ctx)
        assert ms.ops_failed == 1
        assert ms.retries == 4
        assert ms.ops_completed == 0

    def test_failed_ops_keep_their_measurements(self):
        """record_failure must not drop the context's latency; it lands in
        the parallel failed_latency recorder."""
        ms = MetricSet()
        ms.record_failure(self._ctx("mkdir", 0.0, 40.0, rpcs=3))
        assert ms.failed_latency["mkdir"].count == 1
        assert ms.failed_latency["mkdir"].mean == 40.0
        # The success-side recorders stay untouched.
        assert "mkdir" not in ms.latency
        assert "mkdir" not in ms.rpc_rounds
