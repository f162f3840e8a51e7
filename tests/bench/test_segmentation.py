"""Phase segmentation: labels, kernel-independence, digest agreement.

``segment_run`` scores a run by change-point segmentation over the
busy-fraction and latency-digest timelines.  Everything it consumes is simulated-time bookkeeping, so a
segmented run must produce byte-identical phases on the product scheduler
and the all-heap oracle — and the per-phase p99s it reads from the merged
digests must agree with the exact :class:`~repro.sim.stats.LatencyRecorder`
quantiles within the digest's documented error bound.
"""

import pytest

from repro.bench.analyze import (
    PHASE_LABELS,
    anomalous_phases,
    latency_p99_series,
    primary_phase,
    segment_run,
)
from repro.experiments.base import Case, run_case
from repro.sim.telemetry import (DIGEST_ALPHA, Sketch, latency_digests,
                                 window_sketches)
from tests.oracle import AllHeapSimulator

import math


def _storm(clients: int = 48, items: int = 8):
    """A shared-directory mkdir storm — the fig14 '-s' regime."""
    record = run_case(Case("mkdir-s", "mantle", "mkdir", "shared"), "quick",
                      ("tracer", "keeper", "telemetry", "phases"),
                      clients=clients, items=items)
    return record.metrics, record.tracer, record.telemetry, record.phases


def _phase_dump(phases):
    return [(p.label, p.window, p.busy, p.rate_per_s, p.p99_us, p.ops,
             p.verdict.label, tuple(sorted(p.verdict.scores.items())),
             tuple(sorted(p.verdict.hotspots.items())))
            for p in phases]


class TestSegmentation:
    def test_storm_segments_into_labeled_contiguous_phases(self):
        metrics, _tracer, _telemetry, phases = _storm()
        assert phases, "a saturating storm must segment"
        assert all(p.label in PHASE_LABELS for p in phases)
        lo0 = phases[0].window[0]
        hiN = phases[-1].window[1]
        assert lo0 >= metrics.started_at - 1e-9
        assert hiN <= metrics.finished_at + 1e-9
        for left, right in zip(phases, phases[1:]):
            assert left.window[1] == right.window[0], "phases must tile"
        assert primary_phase(phases) is not None

    def test_storm_has_a_saturated_anomalous_phase(self):
        _metrics, _tracer, _telemetry, phases = _storm()
        assert any(p.label == "saturated" for p in phases)
        anomalous = anomalous_phases(phases)
        assert anomalous
        assert primary_phase(phases).label == "saturated"

    def test_each_phase_gets_its_own_verdict(self):
        _metrics, _tracer, _telemetry, phases = _storm()
        for phase in phases:
            assert phase.verdict.window == phase.window
            assert set(phase.verdict.scores) == {
                "cpu", "fsync", "rpc", "contention"}

    def test_phase_p99_agrees_with_latency_recorder(self):
        metrics, _tracer, telemetry, phases = _storm()
        digests = dict(latency_digests(telemetry))
        assert "mkdir" in digests
        digest = digests["mkdir"]
        recorder = metrics.latency["mkdir"]
        assert digest.total_count == recorder.count
        whole = Sketch()
        for sketch in window_sketches([digest]).values():
            whole.merge(sketch)
        est_p99 = whole.quantile(0.99)
        # The documented bound: DIGEST_ALPHA relative error against the
        # integer-rank sample quantile (the digest's own rank walk).
        ordered = sorted(recorder.samples)
        rank = max(0, int(math.ceil(0.99 * len(ordered))) - 1)
        true_rank_p99 = ordered[rank]
        assert abs(est_p99 - true_rank_p99) / true_rank_p99 \
            <= DIGEST_ALPHA + 1e-9
        # LatencyRecorder.p99 interpolates between ranks, so against it
        # the bound widens by at most the neighbouring-rank gap: the
        # estimate must land inside the alpha-widened envelope of the
        # two samples the interpolation mixes.
        frac_rank = 0.99 * (len(ordered) - 1)
        lo_sample = ordered[int(frac_rank)]
        hi_sample = ordered[min(len(ordered) - 1, int(frac_rank) + 1)]
        envelope_lo = (1 - DIGEST_ALPHA) * min(lo_sample, true_rank_p99)
        envelope_hi = (1 + DIGEST_ALPHA) * max(hi_sample, true_rank_p99)
        assert envelope_lo <= est_p99 <= envelope_hi
        assert envelope_lo <= recorder.p99 <= envelope_hi
        # Whole-run p99 must also bound every phase's p99 sensibly: each
        # phase p99 comes from the same buckets, so none can exceed the
        # run max.
        run_max = max(w["max"] for w in digest.to_jsonable()["windows"])
        for phase in phases:
            assert phase.p99_us <= run_max * (1 + DIGEST_ALPHA)

    def test_latency_p99_series_covers_the_run(self):
        metrics, _tracer, telemetry, _phases = _storm()
        series = latency_p99_series(telemetry)
        assert series
        starts = [start for start, _v in series]
        assert starts == sorted(starts)
        assert all(v > 0.0 for _s, v in series)
        assert starts[-1] <= metrics.finished_at


class TestSegmentationKernelIndependence:
    def test_phases_match_oracle(self, all_heap):
        _m, _t, _tel, product = _storm(clients=24, items=6)
        with all_heap():
            _m, tracer, _tel, oracle = _storm(clients=24, items=6)
        assert type(tracer._sim) is AllHeapSimulator
        assert _phase_dump(product) == _phase_dump(oracle)

    def test_digests_do_not_change_simulated_results(self, monkeypatch):
        monkeypatch.delenv("MANTLE_TELEMETRY", raising=False)
        monkeypatch.delenv("MANTLE_TRACE", raising=False)
        plain = run_case(Case("mkdir-s", "mantle", "mkdir", "shared"),
                         "quick", clients=24, items=6).metrics
        instrumented, _tracer, _tel, _phases = _storm(clients=24, items=6)
        assert instrumented.ops_completed == plain.ops_completed
        assert instrumented.retries == plain.retries
        assert instrumented.duration_us == plain.duration_us
        for op in sorted(plain.latency):
            assert instrumented.latency[op].count == plain.latency[op].count
            assert instrumented.latency[op].mean == plain.latency[op].mean


class TestClassifyRunNeedsTelemetry:
    def test_classify_run_without_digests_raises(self):
        # A registry that saw none of the run has nothing to segment, so
        # there is no verdict to give.
        from repro.bench.analyze import classify_run
        from repro.bench.cluster import build_system
        from repro.bench.harness import run_workload
        from repro.sim.telemetry import Telemetry
        from repro.workloads.mdtest import MdtestWorkload

        system = build_system("mantle", "quick")
        try:
            metrics = run_workload(system, MdtestWorkload(
                "objstat", depth=6, items=4, num_clients=8))
            with pytest.raises(ValueError, match="windowed telemetry"):
                classify_run(system, metrics, Telemetry())
        finally:
            system.shutdown()
