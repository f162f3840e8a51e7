"""Unit tests for the saturation analyzer.

The classifier is pure arithmetic over telemetry + metrics, so most tests
run on synthetic timelines; one smoke test classifies a real (tiny) run
end to end through :func:`repro.bench.analyze.classify_run`.
"""

import pytest

from repro.bench.analyze import (
    DEFAULT_THRESHOLD,
    LABELS,
    SATURATION_KEYS,
    UNDERLOADED,
    classify,
    hit_ratio_series,
    utilization_series,
)
from repro.sim.telemetry import Telemetry


class TestClassify:
    def test_saturated_resource_wins(self):
        assert classify({"cpu": 0.9, "fsync": 0.2, "rpc": 0.4,
                         "contention": 0.1}) == "cpu-bound"
        assert classify({"cpu": 0.3, "fsync": 0.95, "rpc": 0.1,
                         "contention": 0.1}) == "fsync-bound"
        assert classify({"cpu": 0.1, "fsync": 0.1, "rpc": 0.2,
                         "contention": 0.8}) == "contention-bound"

    def test_saturation_outranks_wire_fraction(self):
        # An RPC-chatty system at CPU saturation: the knee is the CPU
        # even though most op latency is still flight time.
        scores = {"cpu": 0.99, "fsync": 0.0, "rpc": 1.0, "contention": 0.0}
        assert classify(scores) == "cpu-bound"

    def test_rpc_bound_only_without_saturation(self):
        scores = {"cpu": 0.3, "fsync": 0.1, "rpc": 0.8, "contention": 0.0}
        assert classify(scores) == "rpc-bound"

    def test_underloaded_when_nothing_clears_threshold(self):
        scores = {"cpu": 0.2, "fsync": 0.1, "rpc": 0.3, "contention": 0.0}
        assert classify(scores) == UNDERLOADED

    def test_threshold_boundary_and_override(self):
        assert classify({"cpu": DEFAULT_THRESHOLD}) == "cpu-bound"
        assert classify({"cpu": DEFAULT_THRESHOLD - 0.01}) == UNDERLOADED
        assert classify({"cpu": 0.4}, threshold=0.3) == "cpu-bound"

    def test_tie_breaks_in_sorted_key_order(self):
        # cpu < fsync alphabetically wins an exact tie.
        assert classify({"cpu": 0.9, "fsync": 0.9}) == "cpu-bound"
        assert classify({"contention": 0.9, "cpu": 0.9}) == \
            "contention-bound"

    def test_label_tables_consistent(self):
        assert set(SATURATION_KEYS) < set(LABELS)
        assert all(label.endswith("-bound") for label in LABELS.values())


class TestSeriesHelpers:
    def test_utilization_series_normalises_by_capacity(self):
        telemetry = Telemetry(window_us=10.0)
        counter = telemetry.counter("host.cpu_busy_us", "h", capacity=2.0)
        counter.add_interval(0.0, 10.0, amount=20.0)  # both cores busy
        counter.add_interval(10.0, 20.0, amount=5.0)  # 25% busy
        assert utilization_series(counter) == [
            (0.0, pytest.approx(1.0)), (10.0, pytest.approx(0.25))]

    def test_hit_ratio_series_aggregates_hosts(self):
        telemetry = Telemetry(window_us=10.0)
        telemetry.counter("index.cache_hits", "h0").add(5.0, 3.0)
        telemetry.counter("index.cache_hits", "h1").add(5.0, 1.0)
        telemetry.counter("index.cache_misses", "h0").add(5.0, 4.0)
        telemetry.counter("index.cache_misses", "h1").add(15.0, 2.0)
        series = hit_ratio_series(telemetry)
        assert series == [(0.0, pytest.approx(0.5)),
                          (10.0, pytest.approx(0.0))]

    def test_hit_ratio_series_empty_without_counters(self):
        assert hit_ratio_series(Telemetry()) == []


class TestClassifyRun:
    def test_tiny_real_run_produces_verdict(self):
        from repro.experiments.base import Case, run_case

        record = run_case(Case("objstat", "mantle", "objstat"), "quick",
                          ("verdict",), clients=8, items=4)
        metrics, telemetry, verdict = \
            record.metrics, record.telemetry, record.verdict
        assert verdict.label in set(LABELS.values()) | {UNDERLOADED}
        assert set(verdict.scores) == {"cpu", "fsync", "rpc", "contention"}
        assert all(0.0 <= s <= 1.0 for s in verdict.scores.values())
        lo, hi = verdict.window
        assert metrics.started_at <= lo <= hi <= metrics.finished_at
        assert telemetry.hosts("host.cpu_busy_us")  # instrumented hosts
        assert "=" in verdict.describe()

    def test_saturated_run_is_cpu_bound(self):
        from repro.experiments.base import Case, run_case

        # Leader-only objstat at high client count pins the leader
        # IndexNode's CPU (the fig19b knee).
        from repro.core.config import MantleConfig

        leader_only = Case("objstat", "mantle", "objstat",
                           config=MantleConfig(enable_follower_read=False))
        verdict = run_case(leader_only, "quick", ("verdict",), clients=320,
                           items=10).verdict
        assert verdict.label == "cpu-bound"
        assert verdict.hotspots["cpu"].startswith("default-indexnode")
