"""Tail-kept trace sampling: slow/errored op trees survive the ring.

The :class:`~repro.sim.trace.TailKeeper` exists so a bounded trace ring
never silently loses the ops worth debugging.  The load-bearing claim —
pinned under deliberate ring pressure here — is that 100% of finished
ops at or above the keep threshold are retained with their whole span
trees, no matter how small the ring is, and that every keep/drop is
accounted for in :func:`~repro.sim.trace.trace_stats`.
"""

import random

import pytest

from repro.sim.telemetry import digest_bucket
from repro.sim.trace import (
    CAT_OP,
    CAT_PHASE,
    TailKeeper,
    Tracer,
    span_to_jsonable,
    trace_stats,
)
from tests.oracle import ref_bucket_quantile


def _run_op(tracer: Tracer, name: str, start: float, duration: float,
            children: int = 2, ok: bool = True) -> None:
    """One op tree: a CAT_OP root with ``children`` sequential phases."""
    root = tracer.begin(name, start, category=CAT_OP)
    step = duration / (children + 1)
    now = start
    for i in range(children):
        child = tracer.begin(f"{name}.phase{i}", now, category=CAT_PHASE,
                             parent=root)
        now += step
        tracer.end(child, now)
    tracer.end(root, start + duration, ok=ok)


class TestTailKeeperUnderRingPressure:
    def test_all_ops_above_threshold_survive_a_tiny_ring(self):
        keeper = TailKeeper(threshold_us=100.0, budget=10_000)
        tracer = Tracer(max_spans=8, keeper=keeper)
        slow_names = []
        now = 0.0
        for i in range(200):
            slow = i % 10 == 3
            name = f"op-{i}"
            if slow:
                slow_names.append(name)
            _run_op(tracer, name, now, 500.0 if slow else 5.0)
            now += 600.0
        stats = trace_stats(tracer)
        assert stats["dropped"] > 0, "test needs real ring pressure"
        kept = {tree[-1].name: tree for tree in keeper.trees()}
        for name in slow_names:
            assert name in kept, f"slow op {name} fell out of the trace"
        # Whole trees: root plus both phase children, root last.
        for name in slow_names:
            tree = kept[name]
            assert len(tree) == 3
            assert tree[-1].category == CAT_OP
            assert {s.name for s in tree[:-1]} == {
                f"{name}.phase0", f"{name}.phase1"}
        assert stats["kept_roots"] == len(kept)
        assert stats["kept_spans"] == sum(len(t) for t in keeper.trees())

    def test_fast_ops_below_threshold_are_not_kept(self):
        keeper = TailKeeper(threshold_us=100.0)
        tracer = Tracer(max_spans=8, keeper=keeper)
        for i in range(50):
            _run_op(tracer, f"op-{i}", i * 10.0, 5.0)
        assert keeper.kept_roots == 0
        # Reads rebuild fresh Span objects: compare their contents.
        assert [span_to_jsonable(s) for s in tracer.retained_spans()] == [
            span_to_jsonable(s)
            for s in sorted(tracer.spans, key=lambda s: s.span_id)]

    def test_errored_ops_are_kept_regardless_of_duration(self):
        keeper = TailKeeper(threshold_us=100.0)
        tracer = Tracer(max_spans=8, keeper=keeper)
        for i in range(50):
            _run_op(tracer, f"op-{i}", i * 10.0, 1.0, ok=i != 17)
        assert keeper.kept_errors == 1
        assert [t[-1].name for t in keeper.trees()] == ["op-17"]

    def test_budget_evicts_oldest_trees_whole(self):
        keeper = TailKeeper(threshold_us=1.0, budget=12)  # every op kept
        tracer = Tracer(max_spans=4, keeper=keeper)
        for i in range(10):
            _run_op(tracer, f"op-{i}", i * 100.0, 50.0)
        assert keeper.evicted_roots > 0
        assert keeper.kept_spans <= 12
        survivors = [t[-1].name for t in keeper.trees()]
        # Oldest-first eviction: the survivors are the most recent ops.
        assert survivors == [f"op-{i}" for i in
                             range(10 - len(survivors), 10)]

    def test_eviction_takes_the_oldest_tree_from_rows_or_waiting(self):
        """Kept trees move into rows every 256 kept spans and at a read;
        the newest wait as objects.  Eviction drops the oldest tree
        whole, from whichever side it is on."""
        keeper = TailKeeper(threshold_us=1.0, budget=300)  # 100 trees
        tracer = Tracer(max_spans=4, keeper=keeper)
        for i in range(500):
            _run_op(tracer, f"op-{i}", i * 100.0, 50.0)
            if i % 37 == 0:
                keeper.spans()
        trees = keeper.trees()
        assert [t[-1].name for t in trees] == [
            f"op-{i}" for i in range(400, 500)]
        for tree in trees:
            name = tree[-1].name
            assert [s.name for s in tree] == [
                f"{name}.phase0", f"{name}.phase1", name]
        assert keeper.kept_spans == 300
        assert keeper.evicted_roots == 400

    def test_retained_spans_dedupes_ring_and_keeper(self):
        keeper = TailKeeper(threshold_us=100.0)
        tracer = Tracer(max_spans=1_000, keeper=keeper)
        _run_op(tracer, "slow", 0.0, 500.0)
        # The tree sits in BOTH the ring and the keeper; retained_spans
        # must report each span exactly once, in span-id order.
        retained = tracer.retained_spans()
        ids = [span.span_id for span in retained]
        assert ids == sorted(set(ids))
        assert len(retained) == 3


class TestAdaptiveThreshold:
    def test_keep_all_until_min_samples(self):
        keeper = TailKeeper(min_samples=8)
        tracer = Tracer(max_spans=1_000, keeper=keeper)
        for i in range(8):
            _run_op(tracer, f"warm-{i}", i * 10.0, 2.0)
        assert keeper.kept_roots == 8

    def test_threshold_adapts_to_the_op_types_own_tail(self):
        keeper = TailKeeper(min_samples=8)
        tracer = Tracer(max_spans=10_000, keeper=keeper)
        now = 0.0
        # A tight unimodal population first ...
        for i in range(200):
            _run_op(tracer, "op", now, 10.0 + (i % 5))
            now += 100.0
        kept_before = keeper.kept_roots
        # ... then a genuine straggler: must clear the adaptive p99.
        _run_op(tracer, "op", now, 500.0)
        assert keeper.kept_roots == kept_before + 1
        assert keeper.trees()[-1][-1].start_us == now
        # Per-op-type thresholds: a different op type starts keep-all.
        _run_op(tracer, "other", now + 1_000.0, 1.0)
        assert keeper.kept_roots == kept_before + 2

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("quantile", [0.5, 0.99, 0.999])
    def test_threshold_equals_the_digest_quantile(self, seed, quantile):
        """The keeper's threshold is exactly the integer-rank quantile of
        the op type's digest buckets (the ascending reference walk), per
        op type, from the first root through the ``min_samples``
        warm-up."""
        rng = random.Random(seed)
        draws = {
            "objstat": lambda: rng.lognormvariate(5.0, 0.6),
            "mkdir": lambda: rng.choice((0.01, 40.0, 40.0, 3000.0)),
            "rename": lambda: rng.expovariate(1 / 200.0),
            "create": lambda: float(rng.randint(1, 4)) * 100.0,
        }
        keeper = TailKeeper(quantile=quantile, min_samples=16)
        tracer = Tracer(max_spans=64, keeper=keeper)
        buckets = {op: {} for op in draws}
        now = 0.0
        for _ in range(600):
            op = rng.choice(sorted(draws))
            counts = buckets[op]
            want = (None if sum(counts.values()) < keeper.min_samples
                    else ref_bucket_quantile(counts, quantile))
            assert keeper.op_threshold_us(op) == want
            _run_op(tracer, op, now, draws[op](), children=0)
            bucket = digest_bucket(tracer.spans[-1].duration_us)
            counts[bucket] = counts.get(bucket, 0) + 1
            now += 5_000.0
        for op, counts in buckets.items():
            assert sum(counts.values()) > keeper.min_samples
            assert keeper.op_threshold_us(op) == \
                ref_bucket_quantile(counts, quantile)

    def test_reset_clears_keeper_state(self):
        keeper = TailKeeper(threshold_us=1.0)
        tracer = Tracer(max_spans=16, keeper=keeper)
        _run_op(tracer, "op", 0.0, 50.0)
        assert keeper.kept_roots == 1
        tracer.reset()
        assert keeper.kept_roots == 0
        assert keeper.kept_spans == 0
        assert trace_stats(tracer)["started"] == 0


class TestTraceStats:
    def test_stats_shape_and_counts(self):
        keeper = TailKeeper(threshold_us=100.0)
        tracer = Tracer(max_spans=4, keeper=keeper)
        for i in range(20):
            _run_op(tracer, f"op-{i}", i * 1_000.0, 500.0, children=1)
        stats = trace_stats(tracer)
        assert stats["started"] == stats["finished"] == 40
        assert stats["dropped"] == 40 - 4
        assert stats["kept_roots"] == 20
        assert stats["kept_errors"] == 0
        assert stats["kept_spans"] == 40
        assert stats["kept_evicted_roots"] == 0
        assert all(isinstance(v, int) for v in stats.values())
