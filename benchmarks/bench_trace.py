"""Wall-clock micro-benchmarks of the trace store (``repro.sim.trace``).

A traced run moves finished spans into the ring's packed rows every 256
ends, and every read rebuilds them as ``Span`` objects; the tail keeper
stores its kept trees as rows in the same format.  These benchmarks time
the three paths at the ring's default size, on synthetic op trees that
carry every sparse span field (attributes, multi-key costs, ``queue_res``,
``queue_by`` and ``blocked``):

* recording 300,000 spans into a 262,144-span ring, so the ring wraps;
* reading that ring back (``tracer.spans``);
* offering 10,000 roots to a ``TailKeeper`` that keeps every tree, and
  reading ``retained_spans()`` beside a ring they have mostly fallen out
  of.
"""

import pytest

from repro.sim.trace import (
    CAT_HANDLER,
    CAT_OP,
    CAT_PHASE,
    CAT_RAFT,
    CAT_RPC,
    CAT_TXN,
    DEFAULT_MAX_SPANS,
    TailKeeper,
    Tracer,
)

#: Spans per synthetic op tree (root, phase, rpc, handler, txn, raft).
TREE = 6
#: Spans recorded into the default ring: past its bound, so it wraps.
SPANS = 300_000
#: Roots offered to the keeper.
ROOTS = 10_000


class _Sim:
    """What a bound tracer reads of the simulator: the running process."""

    _active_process = None


def record(tracer: Tracer, roots: int) -> Tracer:
    """Open and end ``roots`` op trees of :data:`TREE` spans, 32 client
    processes round robin; each tree carries every sparse field."""
    sim = _Sim()
    tracer.bind(sim)
    now = 0.0
    for i in range(roots):
        sim._active_process = i % 32
        root = tracer.begin("mkdir", now, category=CAT_OP, host="proxy-0")
        root.annotate(tenant="t1")
        tracer.charge("cpu", 3.0, "proxy-0")
        phase = tracer.begin("lookup", now, category=CAT_PHASE, parent=root)
        rpc = tracer.begin("rpc:lookup", now + 1.0, category=CAT_RPC,
                           parent=root, host="proxy-0")
        tracer.charge("wire", 10.0, None)
        handler = tracer.begin("rpc_lookup", now + 6.0, category=CAT_HANDLER,
                               parent=rpc, host="indexnode-0")
        tracer.charge("queue", 4.0, "indexnode-0", resource="cpu",
                      by=("objstat", None))
        tracer.charge("cpu", 6.0, "indexnode-0")
        tracer.end(handler, now + 20.0)
        tracer.end(rpc, now + 25.0)
        tracer.end(phase, now + 26.0)
        txn = tracer.begin("tafdb.txn", now + 26.0, category=CAT_TXN,
                           parent=root, host="tafdb-1")
        txn.annotate(txn_id=i, mode="1pc")
        raft = tracer.begin("raft.commit", now + 27.0, category=CAT_RAFT,
                            parent=txn, host="indexnode-0")
        tracer.charge_blocked("raft.commit", "fsync", 30.0, "indexnode-0",
                              resource="raft", by=("mkdir", "t1"))
        tracer.end(raft, now + 60.0)
        tracer.end(txn, now + 62.0)
        tracer.end(root, now + 100.0 + i % 100, ok=i % 50 != 7)
        now += 10.0
    return tracer


@pytest.fixture(scope="module")
def full_ring():
    return record(Tracer(), SPANS // TREE)


def test_ring_records_past_its_bound(benchmark):
    tracer = benchmark.pedantic(lambda: record(Tracer(), SPANS // TREE),
                                rounds=3, iterations=1)
    assert tracer.finished == SPANS
    assert tracer.dropped == SPANS - DEFAULT_MAX_SPANS


def test_ring_read(benchmark, full_ring):
    spans = benchmark.pedantic(lambda: full_ring.spans, rounds=3,
                               iterations=1)
    assert len(spans) == DEFAULT_MAX_SPANS
    assert max(span.span_id for span in spans) == SPANS
    handlers = [span for span in spans if span.category == CAT_HANDLER]
    assert all(len(span.costs) == 2 and span.queue_res and span.queue_by
               for span in handlers)


def test_keeper_keeps_and_reads_back(benchmark):
    def run():
        tracer = record(Tracer(max_spans=4_096,
                               keeper=TailKeeper(threshold_us=0.0)), ROOTS)
        return tracer, tracer.retained_spans()

    tracer, retained = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tracer.keeper.kept_roots == ROOTS
    assert len(retained) == ROOTS * TREE
