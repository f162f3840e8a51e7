"""The column ring against the deque ring it replaced.

``Tracer`` keeps each finished span as one row of typed columns and
rebuilds :class:`~repro.sim.trace.Span` objects on read.  These tests drive
it and ``tests/oracle.py``'s :class:`RefTracer` (the tracer whose ring was
a ``deque`` of the span objects) through the same seeded random sequences
of begins, charges, annotations, ends and resets, over several simulated
processes, and compare everything a caller can read: both span reads
(field by field, order included), the kept trees, the op aggregates,
``unattributed``, ``open_costs()`` and the counters.

The sequences cover nested, leaked (never ended) and out-of-order ends (an
ancestor ended first truncates the stack through it), remote parents,
``reset()`` with spans still open, rings of 1 to 64 spans, and tail
keepers small enough to evict.  A span is ended from the process that
opened it, as the instrumentation does; writing to an ended span raises
(``tests/sim/test_trace.py``), so the driver writes only to open ones.
"""

import random
from typing import Any, Dict, List, Optional

import pytest

from repro.sim.trace import (
    RemoteSpanRef,
    TailKeeper,
    Tracer,
    span_to_jsonable,
)
from tests import oracle

NAMES = ("mkdir", "objstat", "lookup", "execution", "rpc:lookup",
         "rpc_lookup", "tafdb.txn", "raft.flush")
CATEGORIES = ("op", "phase", "rpc", "handler", "txn", "raft")
HOSTS = (None, "proxy", "indexnode-0", "tafdb-1")
KINDS = ("cpu", "fsync", "wire", "queue")
RESOURCES = ("cpu", "disk", "latch", "raft")
PROCS = ("client-0", "client-1", "leg-0", None)


class _Sim:
    """What a bound tracer reads of the simulator: the running process."""

    def __init__(self):
        self._active_process = None


def _attrs(rng: random.Random) -> Dict[str, Any]:
    """A few attributes; equal-but-distinct values (``True``/``1``/
    ``1.0``) under one key, so interning must tell them apart."""
    pool = [("to", rng.randint(0, 2)), ("dropped", rng.random() < 0.5),
            ("flag", rng.choice((True, 1, 1.0, False, 0))),
            ("entries", rng.randint(1, 4)),
            ("txn_id", rng.randint(0, 10_000)),
            ("op_label", (rng.choice(NAMES), rng.choice((None, "t1")))),
            ("mode", rng.choice(("1pc", "2pc")))]
    return dict(rng.sample(pool, rng.randint(1, 3)))


def _by(rng: random.Random):
    return rng.choice((None, ("mkdir", None), ("objstat", "t1")))


class _Pair:
    """One sequence's two tracers and the spans they handed out."""

    def __init__(self, rng: random.Random, reset_p: float = 0.005):
        self.rng = rng
        self.reset_p = reset_p
        max_spans = rng.randint(1, 64)
        keep = rng.random() < 0.6
        if keep:
            budget = rng.randint(1, 24)
            threshold = rng.choice((None, 5.0, 50.0))
            min_samples = rng.randint(1, 8)
            keepers = [TailKeeper(threshold_us=threshold, budget=budget,
                                  min_samples=min_samples)
                       for _ in range(2)]
        else:
            keepers = [None, None]
        self.sim = _Sim()
        self.new = Tracer(max_spans=max_spans, keeper=keepers[0])
        self.ref = oracle.RefTracer(max_spans=max_spans, keeper=keepers[1])
        self.new.bind(self.sim)
        self.ref.bind(self.sim)
        self.now = 0.0
        #: open spans: (new span, ref span, opening process).
        self.open: List[tuple] = []
        #: every span pair handed out, ended or not (parents to pick).
        self.every: List[tuple] = []

    def both(self, method: str, *args, **kwargs) -> None:
        getattr(self.new, method)(*args, **kwargs)
        getattr(self.ref, method)(*args, **kwargs)

    def step(self) -> None:
        rng = self.rng
        self.now += rng.choice((0.0, 0.5, 1.0, 7.25, rng.random() * 40))
        roll = rng.random()
        if roll < 0.12:
            self.sim._active_process = rng.choice(PROCS)
        elif roll < 0.40:
            self.begin()
        elif roll < 0.58:
            self.both("charge", rng.choice(KINDS),
                      rng.choice((0.0, -1.0, 0.25, 3.0, rng.random() * 9)),
                      rng.choice(HOSTS),
                      resource=rng.choice((None, None) + RESOURCES),
                      by=_by(rng))
        elif roll < 0.64:
            self.both("charge_blocked", rng.choice(("raft.commit", "wait")),
                      rng.choice(KINDS), rng.choice((0.0, 2.0, 5.5)),
                      rng.choice(HOSTS),
                      resource=rng.choice((None, "raft")), by=_by(rng))
        elif roll < 0.72:
            if self.open:
                new, ref, _proc = rng.choice(self.open)
                attrs = _attrs(rng)
                new.annotate(**attrs)
                ref.annotate(**attrs)
        elif roll < 1.0 - self.reset_p:
            self.end()
        else:
            self.both("reset")

    def begin(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3 or not self.every:
            parents = (None, None)
        elif roll < 0.4:
            remote = RemoteSpanRef(rng.choice(("proxy", "tafdb")),
                                   rng.randint(1, 99))
            parents = (remote, remote)
        else:
            parents = rng.choice(self.every[-12:])[:2]
        name = rng.choice(NAMES)
        category = rng.choice(CATEGORIES)
        host = rng.choice(HOSTS)
        new = self.new.begin(name, self.now, category=category,
                             parent=parents[0], host=host)
        ref = self.ref.begin(name, self.now, category=category,
                             parent=parents[1], host=host)
        pair = (new, ref, self.sim._active_process)
        self.open.append(pair)
        self.every.append(pair)

    def end(self) -> None:
        if not self.open:
            return
        rng = self.rng
        # Mostly the newest (nested ends), sometimes an older one: an
        # out-of-order end that truncates the stack and leaks its children.
        index = -1 if rng.random() < 0.7 else rng.randrange(len(self.open))
        new, ref, proc = self.open.pop(index)
        self.sim._active_process = proc
        ok = rng.random() < 0.9
        self.new.end(new, self.now, ok=ok)
        self.ref.end(ref, self.now, ok=ok)


def _rows(spans) -> List[str]:
    """Each span's fields as their ``repr``, so ``True`` does not pass for
    ``1`` nor ``1`` for ``1.0``."""
    return [repr(dict(span_to_jsonable(span), root=span.root_id))
            for span in spans]


def _aggregates(tracer) -> Dict[str, tuple]:
    return {op: (agg.count, agg.failures, agg.total_latency_us,
                 agg.rpcs_total, list(agg.phases.items()))
            for op, agg in tracer.aggregates.items()}


def _keeper(tracer) -> Optional[tuple]:
    keeper = tracer.keeper
    if keeper is None:
        return None
    return (keeper.kept_roots, keeper.kept_errors, keeper.evicted_roots,
            keeper.kept_spans, [_rows(tree) for tree in keeper.trees()])


def assert_same(pair: _Pair) -> None:
    new, ref = pair.new, pair.ref
    got = new.spans
    assert _rows(got) == _rows(ref.spans)
    assert _rows(new.retained_spans()) == _rows(ref.retained_spans())
    assert _rows(new.retained_spans(got)) == _rows(ref.retained_spans())
    assert _keeper(new) == _keeper(ref)
    assert _aggregates(new) == _aggregates(ref)
    assert list(new.unattributed.items()) == list(ref.unattributed.items())
    assert list(new.open_costs().items()) == list(ref.open_costs().items())
    assert (new.started, new.finished, new.dropped) == \
        (ref.started, ref.finished, ref.dropped)
    # Every read is the caller's own: an edit to one span's attributes
    # reaches neither another span of the read nor a later read.
    for i, span in enumerate(got):
        if span.attrs is not None:
            span.attrs["edited"] = i
    for i, span in enumerate(got):
        if span.attrs is not None:
            assert span.attrs["edited"] == i
    assert _rows(new.spans) == _rows(ref.spans)


@pytest.mark.parametrize("seed", range(240))
def test_column_ring_reads_like_the_deque_ring(seed):
    rng = random.Random(seed)
    # One sequence in eight ends more spans between two reads than a batch
    # of rows holds.
    long = seed % 8 == 0
    pair = _Pair(rng, reset_p=0.0005 if long else 0.005)
    for _ in range(3_000 if long else rng.randint(40, 400)):
        pair.step()
        if rng.random() < (0.001 if long else 0.04):
            assert_same(pair)
    assert_same(pair)


def test_batches_larger_than_the_ring_keep_its_bound():
    """More spans end between two reads than the ring holds (and than one
    batch of rows): the read still returns the newest ``max_spans``."""
    rng = random.Random(7)
    pair = _Pair(rng)
    pair.new = Tracer(max_spans=300)
    pair.ref = oracle.RefTracer(max_spans=300)
    for _ in range(2_000):
        pair.begin()
        pair.end()
    assert_same(pair)
    assert pair.new.dropped == 2_000 - 300


class TestWideColumns:
    """Blocks whose columns need the wide typecodes, which the quick
    workloads never reach, rebuild exactly; so does a ring that wraps in
    the middle of a block.  Every op tree is kept, so the keeper's rows
    take the same paths."""

    @staticmethod
    def _pair(max_spans: int) -> _Pair:
        pair = _Pair(random.Random(0))
        keepers = [TailKeeper(threshold_us=0.0, budget=1_000_000)
                   for _ in range(2)]
        pair.new = Tracer(max_spans=max_spans, keeper=keepers[0])
        pair.ref = oracle.RefTracer(max_spans=max_spans, keeper=keepers[1])
        pair.new.bind(pair.sim)
        pair.ref.bind(pair.sim)
        return pair

    @staticmethod
    def _begin(pair: _Pair, name: str, category: str = "op",
               parent: Optional[tuple] = None,
               host: Optional[str] = None) -> tuple:
        pair.now += 1.5
        return tuple(tracer.begin(name, pair.now, category=category,
                                  parent=None if parent is None else span,
                                  host=host)
                     for tracer, span in zip((pair.new, pair.ref),
                                             parent or (None, None)))

    @staticmethod
    def _end(pair: _Pair, spans: tuple, ok: bool = True) -> None:
        pair.now += 0.25
        pair.new.end(spans[0], pair.now, ok=ok)
        pair.ref.end(spans[1], pair.now, ok=ok)

    @staticmethod
    def _typecodes(pair: _Pair, column: str) -> set:
        stores = (pair.new._ring, pair.new.keeper._rows)
        pair.new.keeper.spans()  # moves the waiting kept spans into rows
        return {getattr(block, column).typecode
                for store in stores for block in store._blocks}

    def test_more_than_255_atoms(self):
        pair = self._pair(max_spans=1_000)
        for i in range(300):
            root = self._begin(pair, f"op-{i}", host=f"host-{i}")
            child = self._begin(pair, f"phase-{i}", "phase", root)
            self._end(pair, child)
            self._end(pair, root)
        assert_same(pair)
        assert "H" in self._typecodes(pair, "names")
        assert "H" in self._typecodes(pair, "hosts")

    def test_a_parent_more_than_65535_ids_back(self):
        pair = self._pair(max_spans=300)
        root = self._begin(pair, "mkdir")
        pair.sim._active_process = "other"
        for _ in range(70_000):
            self._end(pair, self._begin(pair, "raft.flush", "raft"))
        pair.sim._active_process = None
        child = self._begin(pair, "lookup", "phase", root)
        self._end(pair, child)
        self._end(pair, root)
        assert child[0].span_id - root[0].span_id > 65_535
        assert_same(pair)
        for column in ("parents", "dyn_parents", "roots"):
            assert "I" in self._typecodes(pair, column)

    def test_a_multi_key_cost_on_every_row_in_a_ring_that_wraps(self):
        """600 spans in blocks of 256 through a ring of 300: the first
        block the ring keeps is cut in its middle."""
        pair = self._pair(max_spans=300)
        for i in range(200):
            root = self._begin(pair, "mkdir")
            for leaf in range(2):
                span = self._begin(pair, f"rpc:{leaf}", "rpc", root)
                for kind in KINDS:
                    pair.both("charge", kind, 1.0 + i, HOSTS[leaf + 1],
                              resource=RESOURCES[leaf], by=("mkdir", None))
                pair.both("charge_blocked", "raft.commit", "fsync", 2.0,
                          HOSTS[leaf], resource="raft", by=None)
                span[0].annotate(entries=i, txn_id=i * 2 + leaf)
                span[1].annotate(entries=i, txn_id=i * 2 + leaf)
                self._end(pair, span)
            pair.both("charge", "cpu", 0.5, "proxy")
            pair.both("charge", "wire", 0.5, None)
            self._end(pair, root, ok=i % 7 != 3)
        assert pair.new._ring._skip not in (0, None)
        got = pair.new.spans
        assert len(got) == 300
        assert all(len(span.costs) >= 2 for span in got)
        assert_same(pair)

    def test_a_parent_opened_before_a_reset(self):
        """A span opened before ``reset`` can parent one opened after it,
        with an id equal to or above the child's own."""
        pair = self._pair(max_spans=64)
        old = [self._begin(pair, "mkdir") for _ in range(5)]
        pair.both("reset")
        for parent in (old[0], old[2], old[4]):
            self._end(pair, self._begin(pair, "objstat", parent=parent))
        for span in reversed(old):
            self._end(pair, span)
        assert {span.parent_id - span.span_id for span in pair.new.spans
                if span.parent_id} == {0, 1, 2}
        assert_same(pair)
