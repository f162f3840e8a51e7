"""Latency sketches and windowed digests: error bounds, merge algebra,
wire roundtrip.

The :class:`~repro.sim.telemetry.Sketch` is the substrate under the p99
timelines, the tail-keeper's adaptive thresholds and the per-phase p99s
in triage exports, so its contracts are pinned here directly:

* its top-down quantile walk equals the ascending integer-rank walk
  (``tests.oracle.ref_bucket_quantile``, the independent reference),
* any quantile is within :data:`~repro.sim.telemetry.DIGEST_ALPHA`
  relative error of the true sample quantile at the same integer rank,
* merging is bucket-count addition — associative, commutative, and
  exactly order-independent — so cross-process aggregation cannot move
  a byte of the export.
"""

import math
import random

import pytest

from repro.sim.telemetry import (
    DIGEST_ALPHA,
    DIGEST_MAX_BUCKET,
    DIGEST_MIN_VALUE_US,
    Digest,
    Sketch,
    Telemetry,
    digest_bucket,
    digest_bucket_value,
    digest_from_jsonable,
    window_sketches,
)
from tests.oracle import ref_bucket_quantile


def _digest(window_us: float = 1_000.0) -> Digest:
    return Digest("op.latency.test", None, window_us)


def _whole(digest: Digest) -> Sketch:
    """Every window of one digest in one sketch."""
    whole = Sketch()
    for sketch in window_sketches([digest]).values():
        whole.merge(sketch)
    return whole


def _windows(digest: Digest) -> list:
    """Per-window (start, count, max, buckets), read off the wire form."""
    return [(w["window_start_us"], w["count"], w["max"], w["buckets"])
            for w in digest.to_jsonable()["windows"]]


def _samples(n: int = 3000, seed: int = 7) -> list:
    """Deterministic pseudo-random values spanning four decades."""
    values = []
    state = seed
    for _ in range(n):
        state = (state * 9301 + 49297) % 233280
        # Log-uniform over [1, 10^4] us so every decade gets samples.
        values.append(10.0 ** (4.0 * state / 233280.0))
    return values


QUANTILES = (0.0, 1e-9, 0.5, 0.99, 1.0)


class TestSketchWalk:
    """The sketch walks down from its largest bucket; the reference walks
    up from the smallest.  Both must pick the same bucket."""

    @staticmethod
    def _check(counts: dict) -> None:
        sketch = Sketch(counts.items())
        for q in QUANTILES:
            assert sketch.quantile(q) == ref_bucket_quantile(counts, q), (
                counts, q)

    def test_edge_maps(self):
        for counts in ({}, {0: 1}, {0: 7}, {DIGEST_MAX_BUCKET: 3},
                       {5: 1}, {0: 2, DIGEST_MAX_BUCKET: 2},
                       {0: 1, 1: 1, DIGEST_MAX_BUCKET: 98}):
            self._check(counts)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_maps(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            buckets = rng.sample(range(DIGEST_MAX_BUCKET + 1),
                                 rng.randint(1, 12))
            self._check({b: rng.choice((1, 1, 2, 5, 40)) for b in buckets})

    def test_recorded_and_merged_sketches_agree_with_reference(self):
        rng = random.Random(3)
        left, right, counts = Sketch(), Sketch(), {}
        for i in range(500):
            value = rng.lognormvariate(4.0, 1.5)
            (left if i % 3 else right).record(value)
            bucket = digest_bucket(value)
            counts[bucket] = counts.get(bucket, 0) + 1
        left.merge(right)
        assert left.items() == sorted(counts.items())
        assert left.total == 500
        for q in QUANTILES:
            assert left.quantile(q) == ref_bucket_quantile(counts, q)


class TestDigestErrorBound:
    def test_bucket_representative_within_alpha_everywhere(self):
        # The representative value must be within alpha of ANY value in
        # its bucket, not just the recorded one.
        for value in (1.001, 2.5, 37.0, 999.9, 123456.0, 9.9e6):
            rep = digest_bucket_value(digest_bucket(value))
            assert abs(rep - value) / value <= DIGEST_ALPHA + 1e-9

    def test_quantiles_within_alpha_of_true_sample_quantile(self):
        digest = _digest()
        values = _samples()
        for i, value in enumerate(values):
            digest.record(float(i), value)
        ordered = sorted(values)
        for q in (0.10, 0.50, 0.90, 0.99, 0.999):
            # Same integer-rank convention as ref_bucket_quantile.
            rank = max(0, int(math.ceil(q * len(ordered))) - 1)
            true = ordered[rank]
            estimate = _whole(digest).quantile(q)
            assert abs(estimate - true) / true <= DIGEST_ALPHA + 1e-9, (
                f"q={q}: {estimate} vs true {true}")

    def test_windowed_quantile_covers_only_selected_windows(self):
        digest = _digest(window_us=100.0)
        for i in range(100):
            digest.record(float(i), 10.0)        # window 0
        for i in range(100):
            digest.record(100.0 + i, 1_000.0)    # window 1
        early, late = (window_sketches([digest])[idx] for idx in (0, 1))
        assert abs(early.quantile(0.99) - 10.0) / 10.0 <= DIGEST_ALPHA
        assert abs(late.quantile(0.99) - 1_000.0) / 1_000.0 <= DIGEST_ALPHA
        assert early.total == 100
        assert digest.total_count == 200

    def test_values_below_min_land_in_bucket_zero(self):
        assert digest_bucket(0.0) == 0
        assert digest_bucket(DIGEST_MIN_VALUE_US) == 0
        assert digest_bucket(1e30) == DIGEST_MAX_BUCKET

    def test_bucket_quantile_empty_is_zero(self):
        assert Sketch().quantile(0.99) == 0.0
        assert window_sketches([_digest()]) == {}


class TestDigestMergeAlgebra:
    def _three(self):
        parts = []
        for seed in (1, 2, 3):
            digest = _digest()
            for i, value in enumerate(_samples(400, seed=seed)):
                digest.record(float(i * 17), value)
            parts.append(digest)
        return parts

    def test_merge_is_associative(self):
        a1, b1, c1 = self._three()
        a2, b2, c2 = self._three()
        a1.merge(b1)
        a1.merge(c1)          # (a + b) + c
        b2.merge(c2)
        a2.merge(b2)          # a + (b + c)
        assert _windows(a1) == _windows(a2)
        assert a1.total_count == a2.total_count
        assert _whole(a1).quantile(0.99) == _whole(a2).quantile(0.99)

    def test_merge_is_commutative(self):
        a1, b1, _ = self._three()
        a2, b2, _ = self._three()
        a1.merge(b1)
        b2.merge(a2)
        assert _windows(a1) == _windows(b2)

    def test_merge_matches_single_writer(self):
        # Two halves merged == everything recorded into one digest.
        values = _samples(600)
        split = len(values) // 2
        whole, left, right = _digest(), _digest(), _digest()
        for i, value in enumerate(values):
            whole.record(float(i), value)
            (left if i < split else right).record(float(i), value)
        left.merge(right)
        assert _windows(left) == _windows(whole)
        assert _whole(left).quantile(0.5) == _whole(whole).quantile(0.5)


class TestDigestWireForm:
    def test_roundtrip_preserves_buckets_counts_and_quantiles(self):
        digest = _digest(window_us=250.0)
        for i, value in enumerate(_samples(500)):
            digest.record(float(i * 3), value)
        clone = digest_from_jsonable(digest.to_jsonable())
        assert clone.window_us == digest.window_us
        assert sorted(clone.windows) == sorted(digest.windows)
        # Buckets, counts, sums and maxima exact, window by window.
        assert clone.to_jsonable() == digest.to_jsonable()
        assert clone.total_count == digest.total_count
        for q in (0.5, 0.99):
            assert _whole(clone).quantile(q) == _whole(digest).quantile(q)

    @pytest.mark.parametrize("window_us", [333.3, 0.1, 1_000.0, 10_000.0])
    def test_roundtrip_keeps_every_window_of_any_length(self, window_us):
        # One sample per window: a floored ``start / window_us`` maps
        # windows 5 and 7 of a 333.3 us digest onto 4 and 6.
        digest = _digest(window_us)
        for idx in range(10):
            digest.record((idx + 0.5) * window_us, 10.0 * (idx + 1))
        clone = digest_from_jsonable(digest.to_jsonable())
        assert sorted(clone.windows) == list(range(10))
        assert clone.total_count == 10
        assert _windows(clone) == _windows(digest)

    def test_series_reports_per_window_quantiles(self):
        # A digest's exported rows carry each window's p99 and count.
        telemetry = Telemetry(window_us=100.0)
        digest = telemetry.digest("op.latency.test")
        for i in range(64):
            digest.record(50.0, 20.0)
            digest.record(150.0, 2_000.0)
        series = [(row["window_start_us"], row["value"], row["count"])
                  for row in telemetry.export_rows()]
        assert [start for start, _q, _n in series] == [0.0, 100.0]
        assert series[0][2] == 64 and series[1][2] == 64
        assert abs(series[0][1] - 20.0) / 20.0 <= DIGEST_ALPHA
        assert abs(series[1][1] - 2_000.0) / 2_000.0 <= DIGEST_ALPHA
