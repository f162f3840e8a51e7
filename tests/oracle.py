"""Reference implementations the product is held to, kept as test oracles.

The all-heap scheduler.  ``repro.sim.core`` schedules in two tiers — a
``(time, seq)`` heap for delayed events, a FIFO deque for zero-delay ones —
and claims the resulting order is exactly what one heap would give.
:class:`AllHeapSimulator` *is* that one heap: every zero-delay site in the
product does ``sim._micro.append(entry)``, so swapping ``_micro`` for an
object whose ``append`` takes the next sequence number and pushes onto the
heap, plus a pop-and-deliver loop, runs every entry in ``(time, seq)``
order.

The generator path.  The product charges CPU and disk with one
kernel-driven :class:`~repro.sim.host.Slice` per charge and runs an RPC to
a :func:`~repro.sim.network.unary` handler as one kernel-driven call, and
claims the order and the records are exactly what the caller's own process
gets by requesting the slot, resuming on the grant, then waiting out a
``Timeout`` — and by running every handler as a generator between two
flights.  :func:`request_timeout_hosts` swaps both generators back in, so a
run inside the block is the generator path end to end: the reference a
kernel-driven run, traced or not, must equal.

The flat-row shard.  ``ShardState`` stores rows per directory (a
``name -> record`` dict per parent, attribute and delta records under the
directory's id, no key object per row), keys are tuples, and the lock
release walks the keys a prepare took; it claims every read, scan, fold,
abort (reason and key), lock owner, counter and the compactor's directory
order are exactly what the flat ``_rows`` dict with its ``_children`` and
``_deltas`` side indexes gave.  :class:`RefShardState`, with its
dataclass :class:`RefRowKey` and :class:`RefRow`, is that shard (its code
unchanged but for the names and trimmed docstrings);
``tests/tafdb/test_shard_reference.py`` drives both.
It pins the storage layout's semantics, not its bytes, so it can be
retired once a change to those semantics (not to the layout) is due, or
when the shard no longer keeps the transaction machinery it checks.

The per-client Zipf tables.  ``MixedWorkload`` builds one cumulative Zipf
table per item list and every client's picker draws from it with its own
RNG, and claims each client's op stream is exactly what it was when every
picker copied the items and built its own table.
:func:`per_client_zipf_ops` is that stream.

The transactional loader.  ``bulk_load`` installs rows straight into their
shard and folds each parent's counts once per call, and claims every shard,
replica and id counter ends exactly as loading the same lists one entry at
a time through single-shard TafDB transactions would leave them.
:func:`transactional_bulk_load` swaps that per-entry loader back in.

The per-fold span trees.  Every span-tree fold (cost profile, critical
path, blame and the live checks in ``repro.runtime.obs``) reads one
:class:`~repro.sim.trace.SpanIndex`, and claims each result is exactly what
the fold gave when it built its own tree from the span links.
:func:`ref_build_profile`, :func:`ref_build_critpath` /
:func:`ref_build_blame` and :class:`_RefSpanIndex` with its four checks are
those builders.

The ring fold of phase means.  The tracer folds each op's declared
``phase``/``rpc`` children as the op ends (``Tracer.aggregates``), and
claims the result is exactly what folding the finished ring afterwards
gives when the ring dropped nothing.  :func:`ref_aggregate_ops` is that
ring fold.

The deque ring.  ``Tracer`` stores each finished span as one row of typed
columns, refuses a second write to an ended span, and claims every read
(``spans``, ``retained_spans()``), the kept trees, ``aggregates``,
``unattributed``, ``open_costs()`` and the ``started``/``finished``/
``dropped`` counts are exactly what it gave when its ring was a ``deque``
of the span objects themselves.  :class:`RefTracer` with :class:`RefSpan`
is that tracer, its keeper hooks included (its code unchanged but for the
names and trimmed docstrings); ``tests/sim/test_tracer_reference.py``
drives both.  It pins what the ring keeps, not how, so it can be retired
once a change to that (the ring's order or bound, or a span's fields) is
due.

The ascending bucket walk.  ``Sketch.quantile`` walks down from the
largest bucket and claims it picks exactly the bucket the integer-rank
walk up from the smallest one picks.  :func:`ref_bucket_quantile` is that
walk; ``tests/sim/test_digest.py`` and the keeper's threshold test in
``tests/sim/test_tailkeep.py`` are held to it.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import itertools
import math
import random
from heapq import heappop, heappush
from types import MappingProxyType
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import pytest

from repro.baselines import common, locofs
from repro.baselines.common import StorageMixin
from repro.core import multitenant, service
from repro.errors import (
    NoSuchPathError,
    ServiceUnavailableError,
    TransactionAbort,
)
from repro.paths import ATTR_SENTINEL, normalize, parent_and_name
from repro.runtime.obs import OpPhases, _fold_kind, _spans_of
from repro.sim.critpath import UNKNOWN_CULPRIT, BlameMatrix, _queue_resource
from repro.sim.profile import UNATTRIBUTED_FRAME, CostProfile, _frame
from repro.sim.trace import (CAT_OP, CAT_PHASE, CAT_RPC, OpAggregate,
                              DEFAULT_MAX_SPANS, RemoteSpanRef, Span,
                              TailKeeper)
from repro.sim.core import Simulator, Timeout
from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.telemetry import digest_bucket_value
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import AccessMeta, AttrMeta, EntryKind


class _HeapTier:
    """Stands in for the microtask deque; always falsy (nothing to drain)."""

    def __init__(self, sim):
        self._sim = sim

    def append(self, entry):
        sim = self._sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, sim._seq, entry))

    def __bool__(self):
        return False


class AllHeapSimulator(Simulator):
    def __init__(self, tracer=None, telemetry=None):
        super().__init__(tracer=tracer, telemetry=telemetry)
        self._micro = _HeapTier(self)

    def _step(self):
        self._now, _seq, entry = heappop(self._queue)
        if type(entry) is tuple:  # deferred resume: (callback, trigger)
            return entry[0](entry[1])
        callbacks, entry.callbacks = entry.callbacks or (), None
        for callback in callbacks:
            if callback is not None:
                callback(entry)
        if not entry._ok and not entry._defused and all(
                cb is None for cb in callbacks):
            raise entry._value

    def run(self, until=None):
        while self._queue and (until is None or self._queue[0][0] <= until):
            self._step()
        if until is not None and until > self._now:
            self._now = float(until)

    def run_until(self, event):
        while self._queue and not event.triggered:
            self._step()


@contextlib.contextmanager
def all_heap_systems():
    """Inside the block every system is built on :class:`AllHeapSimulator`;
    yields the list of those built, and leaving with it empty fails."""
    built = []

    def build(*args, **kwargs):
        built.append(AllHeapSimulator(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        # Every module that constructs a system's simulator, by that name.
        for module in (service, multitenant, common):
            patch.setattr(module, "Simulator", build)
        yield built
    assert built, "no system ran on the oracle"


def _request_then_timeout(host, resource, us):
    """``Host._occupy`` as a holder process: request, grant, timeout, with
    the queue, cpu and fsync records made from the holder itself."""
    if host.crashed:
        raise ServiceUnavailableError(host.name)
    sim = host.sim
    tracer = sim.tracer
    req = resource.request()
    try:
        yield req
        wait = sim._now - req._enqueue_time
        if tracer.enabled and wait > 0.0:
            tracer.charge("queue", wait, host.name, resource=resource.label,
                          by=getattr(req, "_blame", None))
        yield Timeout(sim, us)
        if resource is host.cpu:
            host.cpu_busy_us += us
            if tracer.enabled:
                tracer.charge("cpu", us, host.name)
            telemetry = sim.telemetry
            if telemetry.enabled:
                now = sim._now
                telemetry.counter("host.cpu_busy_us", host.name,
                                  capacity=host.cores).add_interval(
                    now - us, now, us)
        else:
            host.fsync_count += 1
            host._record_fsync(us)
    finally:
        resource.release(req)  # withdraws it if never granted
    if resource is host.cpu and host.crashed:
        raise ServiceUnavailableError(host.name)


def _generator_rpc(self, server, method, *args, ctx=None, **kwargs):
    """``Network.rpc`` as the caller's process: a flight out, the handler
    generator (the one :func:`~repro.sim.network.unary` derives, for a
    unary handler) inside ``Server.dispatch``, a flight back — with the
    ``rpc:`` span, wire charges and RPC telemetry made as it goes."""
    self.rpc_count += 1
    if ctx is not None:
        ctx.rpcs += 1
    sim = self.sim
    tracer = sim.tracer
    span = None
    if tracer.enabled:
        span = tracer.begin("rpc:" + method, sim.now, category="rpc",
                            parent=ctx.trace if ctx is not None else None,
                            host=server.host.name)
    telemetry = sim.telemetry
    started_us = None
    if telemetry.enabled:
        started_us = sim._now
        telemetry.counter("rpc.count", server.host.name).add(started_us)
        telemetry.gauge("rpc.in_flight").adjust(started_us, 1.0)
    sent_us = sim._now
    yield Timeout(sim, self._delay())
    if tracer.enabled:
        tracer.charge("wire", sim._now - sent_us, server.host.name)
    ok = True
    try:
        result = yield from server.dispatch(method, args, kwargs, span)
    except BaseException:
        ok = False
        raise
    finally:
        # The response (or error) still has to fly back.
        sent_us = sim._now
        yield Timeout(sim, self._delay())
        if tracer.enabled:
            tracer.charge("wire", sim._now - sent_us, server.host.name)
            tracer.end(span, sim.now, ok=ok)
        if started_us is not None:
            now = sim._now
            telemetry.gauge("rpc.in_flight").adjust(now, -1.0)
            telemetry.histogram("rpc.latency_us", server.host.name).record(
                now, now - started_us)
    return result


@contextlib.contextmanager
def request_timeout_hosts():
    """Inside the block every host charges through
    :func:`_request_then_timeout` instead of a slice, and every RPC runs
    through :func:`_generator_rpc`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Host, "_occupy", _request_then_timeout)
        patch.setattr(Network, "rpc", _generator_rpc)
        yield


def _execute(system, pid, intents):
    """One single-shard transaction on the shard holding ``pid``."""
    system.tafdb.shard_for(pid).execute("bulk", intents)


def _bump_parent(system, pid, link_delta, entry_delta):
    row = system.tafdb.shard_for(pid).read(attr_key(pid))
    attrs = row.value.copy()
    attrs.link_count += link_delta
    attrs.entry_count += entry_delta
    _execute(system, pid, [WriteIntent(
        attr_key(pid), "update", attrs, expect_version=row.version)])


def _loaded_parent(system, path):
    parent_path, name = parent_and_name(path)
    pid = system._bulk_dirs.get(parent_path)
    if pid is None:
        raise NoSuchPathError(path, parent_path)
    return pid, name


def _create_object(system, path, size):
    pid, name = _loaded_parent(system, path)
    obj_id = system.ids.next()
    _execute(system, pid, [WriteIntent(
        dirent_key(pid, name), "insert",
        Dirent(id=obj_id, kind=EntryKind.OBJECT,
               attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                              size=size)))])
    return pid, obj_id


def _txn_bulk_load(self, dirs=(), objects=(), size=0):
    """Every directory: a dirent insert, an attribute-row insert and a
    parent read-modify-write; every object: a dirent insert and a parent
    read-modify-write — each its own transaction."""
    last = None
    for path in dirs:
        path = normalize(path)
        last = self._bulk_dirs.get(path)
        if last is not None:
            continue
        pid, name = _loaded_parent(self, path)
        last = self._new_dir_id(path)
        _execute(self, pid, [WriteIntent(
            dirent_key(pid, name), "insert",
            Dirent(id=last, kind=EntryKind.DIRECTORY))])
        _execute(self, last, [WriteIntent(
            attr_key(last), "insert",
            AttrMeta(id=last, kind=EntryKind.DIRECTORY))])
        _bump_parent(self, pid, 1, 1)
        self._on_bulk_mkdir(pid, name, last, path)
        self._bulk_dirs[path] = last
    for path in objects:
        pid, last = _create_object(self, normalize(path), size)
        _bump_parent(self, pid, 0, 1)
    return last


def _loco_txn_bulk_load(self, dirs=(), objects=(), size=0):
    """LocoFS: directories and their parents' bumps go to every
    dir-service replica, one entry at a time; objects are TafDB
    transactions."""
    states = [node.state_machine for node in self.dir_group.nodes.values()]
    last = None
    for path in dirs:
        path = normalize(path)
        last = self._bulk_dirs.get(path)
        if last is not None:
            continue
        pid, name = _loaded_parent(self, path)
        last = self.ids.next()
        for state in states:
            state.table.insert(AccessMeta(pid=pid, name=name, id=last))
            state.attrs[last] = AttrMeta(id=last, kind=EntryKind.DIRECTORY)
            state.bump(pid, 1, 1, 0.0)
        self._bulk_dirs[path] = last
    for path in objects:
        pid, last = _create_object(self, normalize(path), size)
        for state in states:
            state.bump(pid, 0, 1, 0.0)
    return last


@contextlib.contextmanager
def transactional_bulk_load():
    """Inside the block every system bulk-loads one entry at a time
    through single-shard TafDB transactions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageMixin, "bulk_load", _txn_bulk_load)
        patch.setattr(locofs.LocoFSSystem, "bulk_load", _loco_txn_bulk_load)
        yield


# ---------------------------------------------------------------------------
# The flat-row shard (the ShardState before rows were kept per directory)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, order=True)
class RefRowKey:
    """Composite primary key: (parent id, name, transaction timestamp)."""

    pid: int
    name: str
    ts: int = 0

    @property
    def is_delta(self) -> bool:
        return self.name == ATTR_SENTINEL and self.ts != 0

    @property
    def is_attr(self) -> bool:
        return self.name == ATTR_SENTINEL


def _ref_attr_key(dir_id: int) -> RefRowKey:
    return RefRowKey(dir_id, ATTR_SENTINEL, 0)


@dataclasses.dataclass
class RefRow:
    """A stored row: value plus its optimistic-concurrency version."""

    key: RefRowKey
    value: Any
    version: int = 1

    def snapshot(self) -> "RefRow":
        """Copy handed to readers so cached references can't see later writes."""
        value = self.value
        if isinstance(value, AttrMeta):
            value = value.copy()
        return RefRow(self.key, value, self.version)


#: Lock owner used by the compactor's latch.
_REF_COMPACTOR = "__compactor__"


class RefShardState:
    """In-memory storage and transaction machinery for one shard."""

    def __init__(self, shard_id: int = 0):
        self.shard_id = shard_id
        self._rows: Dict[RefRowKey, RefRow] = {}
        self._children: Dict[int, Set[str]] = {}
        self._deltas: Dict[int, Set[int]] = {}
        self._locks: Dict[RefRowKey, str] = {}
        self._staged: Dict[str, List[WriteIntent]] = {}
        self.aborts = 0
        self.commits = 0
        self.compactions = 0
        self.abort_reasons: Dict[str, int] = {}

    def read(self, key: RefRowKey) -> Optional[RefRow]:
        row = self._rows.get(key)
        return row.snapshot() if row is not None else None

    def scan_children(self, pid: int, limit: Optional[int] = None,
                      start_after: Optional[str] = None
                      ) -> List[Tuple[str, Dirent]]:
        names = sorted(self._children.get(pid, ()))
        if start_after is not None:
            names = [n for n in names if n > start_after]
        if limit is not None:
            names = names[:limit]
        out = []
        for name in names:
            row = self._rows[RefRowKey(pid, name, 0)]
            assert isinstance(row.value, Dirent)
            out.append((name, row.value))
        return out

    def has_children(self, pid: int) -> bool:
        return bool(self._children.get(pid))

    def delta_count(self, dir_id: int) -> int:
        return len(self._deltas.get(dir_id, ()))

    def read_attrs_folded(self, dir_id: int) -> Optional[AttrMeta]:
        primary = self._rows.get(_ref_attr_key(dir_id))
        if primary is None:
            return None
        attrs = primary.value.copy()
        for ts in sorted(self._deltas.get(dir_id, ())):
            delta_row = self._rows[
                RefRowKey(dir_id, _ref_attr_key(dir_id).name, ts)]
            delta_row.value.apply_to(attrs)
        return attrs

    def prepare(self, txn_id: str, intents: List[WriteIntent]) -> None:
        if txn_id in self._staged:
            raise TransactionAbort("txn already prepared on this shard", None)
        acquired: List[RefRowKey] = []
        try:
            for intent in intents:
                holder = self._locks.get(intent.key)
                if holder is not None and holder != txn_id:
                    raise TransactionAbort("lock held", intent.key)
                row = self._rows.get(intent.key)
                if intent.kind == "insert":
                    if row is not None:
                        raise TransactionAbort("exists", intent.key)
                else:
                    if row is None:
                        raise TransactionAbort("missing", intent.key)
                    if (intent.expect_version is not None
                            and row.version != intent.expect_version):
                        raise TransactionAbort("version", intent.key)
                if holder is None:
                    self._locks[intent.key] = txn_id
                    acquired.append(intent.key)
        except TransactionAbort as exc:
            self.aborts += 1
            self.abort_reasons[exc.reason] = \
                self.abort_reasons.get(exc.reason, 0) + 1
            for key in acquired:
                del self._locks[key]
            raise
        self._staged[txn_id] = list(intents)

    def commit(self, txn_id: str) -> None:
        intents = self._staged.pop(txn_id, None)
        if intents is None:
            raise TransactionAbort("commit of unprepared txn", None)
        for intent in intents:
            self._apply(intent)
        self._release(txn_id)
        self.commits += 1

    def abort(self, txn_id: str) -> None:
        self._staged.pop(txn_id, None)
        self._release(txn_id)

    def execute(self, txn_id: str, intents: List[WriteIntent]) -> None:
        self.prepare(txn_id, intents)
        self.commit(txn_id)

    def _release(self, txn_id: str) -> None:
        for key in [k for k, owner in self._locks.items() if owner == txn_id]:
            del self._locks[key]

    def _apply(self, intent: WriteIntent) -> None:
        key = intent.key
        if intent.kind == "delete":
            del self._rows[key]
            self._unindex(key)
            return
        old = self._rows.get(key)
        version = old.version + 1 if old is not None else 1
        self._rows[key] = RefRow(key, intent.value, version)
        if old is None:
            self._index(key)

    def install(self, key: RefRowKey, value: Any, version: int = 1) -> None:
        if key not in self._rows:
            self._index(key)
        self._rows[key] = RefRow(key, value, version)

    def _index(self, key: RefRowKey) -> None:
        if key.is_delta:
            self._deltas.setdefault(key.pid, set()).add(key.ts)
        elif not key.is_attr:
            self._children.setdefault(key.pid, set()).add(key.name)

    def _unindex(self, key: RefRowKey) -> None:
        if key.is_delta:
            bucket = self._deltas.get(key.pid)
            if bucket is not None:
                bucket.discard(key.ts)
                if not bucket:
                    del self._deltas[key.pid]
        elif not key.is_attr:
            bucket = self._children.get(key.pid)
            if bucket is not None:
                bucket.discard(key.name)
                if not bucket:
                    del self._children[key.pid]

    def fold_direct(self, dir_id: int, delta) -> bool:
        key = _ref_attr_key(dir_id)
        row = self._rows.get(key)
        if row is None:
            return False
        if self._locks.get(key) is not None:
            return False
        attrs = row.value.copy()
        delta.apply_to(attrs)
        self._rows[key] = RefRow(key, attrs, row.version + 1)
        self.commits += 1
        return True

    def is_locked(self, key: RefRowKey) -> bool:
        return key in self._locks

    def lock_owner(self, key: RefRowKey) -> Optional[str]:
        return self._locks.get(key)

    def compact(self, dir_id: int) -> int:
        pending = self._deltas.get(dir_id)
        if not pending:
            return 0
        primary_key = _ref_attr_key(dir_id)
        primary = self._rows.get(primary_key)
        if primary is None:
            return self._drop_deltas(dir_id)
        if self._locks.get(primary_key) is not None:
            return 0
        self._locks[primary_key] = _REF_COMPACTOR
        try:
            attrs = primary.value.copy()
            timestamps = sorted(pending)
            for ts in timestamps:
                key = RefRowKey(dir_id, primary_key.name, ts)
                self._rows[key].value.apply_to(attrs)
                del self._rows[key]
                self._unindex(key)
            self._rows[primary_key] = RefRow(primary_key, attrs,
                                             primary.version + 1)
            self.compactions += 1
            return len(timestamps)
        finally:
            del self._locks[primary_key]

    def compact_all(self) -> int:
        folded = 0
        for dir_id in list(self._deltas.keys()):
            folded += self.compact(dir_id)
        return folded

    def _drop_deltas(self, dir_id: int) -> int:
        dropped = 0
        for ts in sorted(self._deltas.get(dir_id, set()).copy()):
            key = RefRowKey(dir_id, _ref_attr_key(dir_id).name, ts)
            if self._locks.get(key) is None:
                del self._rows[key]
                self._unindex(key)
                dropped += 1
        return dropped

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def pending_delta_rows(self) -> int:
        return sum(len(v) for v in self._deltas.values())

    @property
    def dirs_with_deltas(self) -> List[int]:
        return list(self._deltas.keys())


class PerClientZipfPicker:
    """A Zipf(s) picker that copies its items and builds its own
    cumulative table."""

    def __init__(self, items, s=1.1, seed=0):
        if not items:
            raise ValueError("need at least one item")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self._items = list(items)
        self._rng = random.Random(seed)
        weights = [1.0 / ((rank + 1) ** s) for rank in range(len(items))]
        self._cumulative = list(itertools.accumulate(weights))

    def pick(self):
        point = self._rng.uniform(0.0, self._cumulative[-1])
        return self._items[bisect.bisect_left(self._cumulative, point)]


def per_client_zipf_ops(workload, cid):
    """Client ``cid``'s op stream of a set-up ``MixedWorkload``, drawn the
    way every client drew it when it built its own pickers."""
    dirs = [d for d in workload.spec.directories if d.count("/") > 1]
    objects = list(workload.spec.objects)
    rng = random.Random((workload.seed << 20) ^ cid)
    obj_picker = PerClientZipfPicker(objects, workload.zipf_s,
                                     seed=(workload.seed << 8) ^ cid)
    dir_picker = PerClientZipfPicker(dirs, workload.zipf_s,
                                     seed=(workload.seed << 8) ^ cid ^ 0x5A5A)
    ops = list(workload.mix)
    weights = [workload.mix[op] for op in ops]
    created = []
    made_dirs = []
    counter = 0
    for _ in range(workload.ops_per_client):
        op = rng.choices(ops, weights)[0]
        counter += 1
        if op == "objstat":
            yield (op, (obj_picker.pick(),))
        elif op in ("readdir", "dirstat"):
            yield (op, (dir_picker.pick(),))
        elif op == "create":
            path = f"{dir_picker.pick()}/mx_{cid}_{counter}.bin"
            created.append(path)
            yield (op, (path,))
        elif op == "delete":
            if created:
                yield (op, (created.pop(),))
            else:
                yield ("objstat", (obj_picker.pick(),))
        elif op == "mkdir":
            path = f"{dir_picker.pick()}/mxd_{cid}_{counter}"
            made_dirs.append(path)
            yield (op, (path,))
        elif op == "rmdir":
            if made_dirs:
                yield (op, (made_dirs.pop(),))
            else:
                yield ("dirstat", (dir_picker.pick(),))


# ---------------------------------------------------------------------------
# The per-fold span-tree builders (``tests/sim/test_span_index.py``).
# ---------------------------------------------------------------------------


class FrameCost:
    """The profile's per-frame rollup the reference builder fills in."""

    __slots__ = ("frame", "spans", "inclusive_us", "self_us", "kinds")

    def __init__(self, frame: str):
        self.frame = frame
        self.spans = 0
        self.inclusive_us = 0.0
        self.self_us = 0.0
        self.kinds: Dict[str, float] = {}

    def add_kind(self, kind: str, us: float) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0.0) + us


class _RefCritPath:
    """The result fields the critical-path reference fills in."""

    def __init__(self, name=""):
        self.name = name
        self.ops = 0
        self.op_failures = 0
        self.total_us = 0.0
        self.gated = {}
        self.ops_by_name = {}
        self.root_paths = []
        self._by_id = {}
        self._children = {}
        self._self_us = {}


def ref_build_profile(spans: Iterable[Span],
                  unattributed: Optional[Dict[Tuple[Optional[str], str],
                                              float]] = None,
                  name: str = "") -> CostProfile:
    """Fold finished spans (plus the tracer's unattributed charges) into a
    :class:`CostProfile`.

    Spans whose dynamic parent is absent (true roots, spans begun in
    freshly spawned processes, or orphans whose parent fell out of the
    ring) become dynamic roots; conservation holds per present tree.
    """
    profile = CostProfile(name)
    finished = [s for s in spans if s.end_us is not None]
    by_id: Dict[int, Span] = {s.span_id: s for s in finished}
    child_us: Dict[int, float] = {}
    for span in finished:
        pid = span.dyn_parent_id
        if pid and pid in by_id:
            child_us[pid] = child_us.get(pid, 0.0) + span.duration_us

    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: Span) -> Tuple[str, ...]:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        pid = span.dyn_parent_id
        if pid and pid in by_id:
            result = path_of(by_id[pid]) + (_frame(span.name),)
        else:
            result = (_frame(span.name),)
        paths[span.span_id] = result
        return result

    centers = profile.centers
    stacks = profile.stacks
    for span in finished:
        profile.span_count += 1
        frame = _frame(span.name)
        dur = span.duration_us
        self_us = dur - child_us.get(span.span_id, 0.0)
        if self_us < 0.0:
            self_us = 0.0  # float dust only; nesting forbids real negatives
        stack = path_of(span)
        fc = profile.frames.get(frame)
        if fc is None:
            fc = profile.frames[frame] = FrameCost(frame)
        fc.spans += 1
        fc.inclusive_us += dur
        fc.self_us += self_us
        if span.category == CAT_OP:
            if span.ok:
                profile.ops += 1
            else:
                profile.op_failures += 1
        if not span.dyn_parent_id or span.dyn_parent_id not in by_id:
            profile.total_root_us += dur
        profile.total_self_us += self_us
        charged = 0.0
        if span.costs:
            for (kind, host), us in span.costs.items():
                charged += us
                key = (host, frame, kind)
                centers[key] = centers.get(key, 0.0) + us
                skey = (stack, kind)
                stacks[skey] = stacks.get(skey, 0.0) + us
                fc.add_kind(kind, us)
        idle = self_us - charged
        if idle > 0.0:
            key = (span.host, frame, "idle")
            centers[key] = centers.get(key, 0.0) + idle
            skey = (stack, "idle")
            stacks[skey] = stacks.get(skey, 0.0) + idle
            fc.add_kind("idle", idle)
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


def _ref_segments_of(span: Span, self_us: float) -> List[
        Tuple[Optional[str], str, str, float]]:
    """Decompose one span's self-time into (host, frame, kind, us) gating
    segments.  By construction the segments sum to ``self_us`` up to float
    dust: charges are taken verbatim, queue charges are refined by their
    resource tags, blocked-on edges refine (and are capped by) the idle
    residual, and whatever remains is ``idle``.
    """
    frame = span.name
    out: List[Tuple[Optional[str], str, str, float]] = []
    charged = 0.0
    if span.costs:
        queue_res = dict(span.queue_res) if span.queue_res else {}
        for (kind, host), us in span.costs.items():
            charged += us
            if kind != "queue":
                out.append((host, frame, kind, us))
                continue
            remaining = us
            for (resource, rhost), rus in list(queue_res.items()):
                if rhost != host or rus <= 0.0 or remaining <= 0.0:
                    continue
                take = min(rus, remaining)
                out.append((host, frame, f"queue:{resource}", take))
                remaining -= take
                del queue_res[(resource, rhost)]
            if remaining > 0.0:
                out.append((host, frame, "queue", remaining))
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
                out.append((host, cause, kind, us))
                used += us
        avail -= used
    if avail > 0.0:
        out.append((span.host, frame, "idle", avail))
    return out


def _ref_fold_children(kids: List[Span]) -> List[Span]:
    """Select the children on the gating path.

    Serial siblings (disjoint intervals — the normal stack-discipline
    case) all stay.  Siblings whose intervals overlap are a fan-out
    group: the join waited on whichever leg finished *last*, so only
    that leg gates; the others ran in its shadow.  Back-to-back spans
    (end == next start, exact in the DES) are serial, not overlapping.
    """
    kids = sorted(kids, key=lambda s: (s.start_us, s.end_us, s.span_id))
    folded: List[Span] = []
    group = [kids[0]]
    group_end = kids[0].end_us
    for kid in kids[1:]:
        if kid.start_us < group_end:
            group.append(kid)
            group_end = max(group_end, kid.end_us)
        else:
            folded.append(max(group,
                              key=lambda s: (s.end_us, s.span_id)))
            group = [kid]
            group_end = kid.end_us
    folded.append(max(group, key=lambda s: (s.end_us, s.span_id)))
    return folded


def ref_build_critpath(spans: Iterable[Span], name: str = "",
                   root_category: str = CAT_OP,
                   root_name: Optional[str] = None,
                   require_ok: bool = True,
                   root_where: Optional[Callable[[Span], bool]] = None
                   ) -> CritPath:
    """Extract and aggregate the critical path of every traced op.

    Only *successful*, *dynamically rooted* ``op``-category spans are
    folded (an op whose root fell out of the ring cannot be decomposed;
    failed ops contribute no latency).  Per root, the extracted segments
    sum to the root's duration exactly — the telescoping identity the
    profiler relies on, inherited here segment-by-segment, with fan-out
    groups contributing exactly their gating leg.

    ``root_category`` / ``root_name`` / ``require_ok`` repoint the fold at
    non-op roots — e.g. ``root_category="raft", root_name="raft.election"``
    decomposes a traced failover's unavailability window instead of client
    ops (lost candidacies are still skipped unless ``require_ok=False``).
    ``root_where`` filters root spans further — the triage path uses it to
    fold only the tail exemplars of one phase (the predicate sees the root
    span; roots it rejects are skipped without counting as failures).
    """
    crit = _RefCritPath(name)
    finished = [s for s in spans if s.end_us is not None]
    by_id = {s.span_id: s for s in finished}
    raw_children: Dict[int, List[Span]] = {}
    for span in finished:
        pid = span.dyn_parent_id
        if (not pid or pid not in by_id) and span.attrs is not None:
            # A fan-out leg: a dynamic root that joins back into the
            # span that awaited it (see TafDBClient._fanout_leg).
            pid = span.attrs.get("join_to", 0)
        if pid and pid in by_id:
            raw_children.setdefault(pid, []).append(span)
    children = {pid: _ref_fold_children(kids)
                for pid, kids in raw_children.items()}
    child_us: Dict[int, float] = {
        pid: sum(kid.duration_us for kid in kids)
        for pid, kids in children.items()}
    crit._by_id = by_id
    crit._children = children
    self_us = crit._self_us
    for span in finished:
        value = span.duration_us - child_us.get(span.span_id, 0.0)
        self_us[span.span_id] = value if value > 0.0 else 0.0

    gated = crit.gated
    for span in finished:
        if span.category != root_category:
            continue
        if root_name is not None and span.name != root_name:
            continue
        if span.dyn_parent_id and span.dyn_parent_id in by_id:
            continue  # op nested under another op's tree: not a root
        if root_where is not None and not root_where(span):
            continue
        if require_ok and not span.ok:
            crit.op_failures += 1
            continue
        crit.ops += 1
        crit.ops_by_name[span.name] = crit.ops_by_name.get(span.name, 0) + 1
        crit.total_us += span.duration_us
        path_us = 0.0
        stack = [span]
        while stack:
            node = stack.pop()
            for host, frame, kind, us in _ref_segments_of(
                    node, self_us[node.span_id]):
                key = (host, frame, kind)
                gated[key] = gated.get(key, 0.0) + us
                path_us += us
            stack.extend(children.get(node.span_id, ()))
        crit.root_paths.append((span, path_us))
    return crit


def ref_build_blame(crit: CritPath, name: str = "") -> BlameMatrix:
    """Fold a :class:`CritPath`'s queue segments into a blame matrix.

    Walks exactly the spans :func:`build_critpath` folded (same children
    selection, same self-times, same segment decomposition), so the
    matrix conserves against the profile's ``queue*`` centers by
    construction — the invariant the ``blame`` view gates on.
    """
    blame = BlameMatrix(name or crit.name)
    blame.ops = crit.ops
    blame.total_us = crit.total_us
    cells = blame.cells
    self_us = crit._self_us
    children = crit._children
    for root, _path_us in crit.root_paths:
        attrs = root.attrs
        victim = (root.name, attrs.get("tenant") if attrs else None)
        stack = [root]
        while stack:
            node = stack.pop()
            for host, frame, kind, us in _ref_segments_of(
                    node, self_us[node.span_id]):
                resource = _queue_resource(frame, kind)
                if resource is None or us <= 0.0:
                    continue
                blame.total_queue_us += us
                tags = node.queue_by
                shares = []
                if tags:
                    shares = [((op, tenant), t_us)
                              for (op, tenant, res, t_host), t_us
                              in tags.items()
                              if res == resource and t_host == host
                              and t_us > 0.0]
                total = sum(t_us for _c, t_us in shares)
                if total <= 0.0:
                    key = victim + UNKNOWN_CULPRIT + (resource, host)
                    cells[key] = cells.get(key, 0.0) + us
                    continue
                for culprit, t_us in shares:
                    key = victim + culprit + (resource, host)
                    cells[key] = cells.get(key, 0.0) + us * (t_us / total)
            stack.extend(children.get(node.span_id, ()))
    return blame


def ref_aggregate_ops(spans: Iterable[Span]) -> Dict[str, OpAggregate]:
    """Fold a span stream into per-operation aggregates.

    Only ``op``-category roots and their *direct* children matter here;
    deeper descendants (handlers under RPCs, 2PC phases under transactions)
    are drill-down detail for the exported trace.
    """
    roots: Dict[int, Span] = {}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.category == CAT_OP:
            roots[span.span_id] = span
        elif span.parent_id:
            children.setdefault(span.parent_id, []).append(span)
    out: Dict[str, OpAggregate] = {}
    for span_id, root in roots.items():
        agg = out.get(root.name)
        if agg is None:
            agg = out[root.name] = OpAggregate(root.name)
        if not root.ok:
            agg.failures += 1
            continue
        agg.count += 1
        agg.total_latency_us += root.duration_us
        per_phase: Dict[str, float] = {}
        for child in children.get(span_id, ()):
            if child.category == CAT_PHASE:
                per_phase[child.name] = (
                    per_phase.get(child.name, 0.0) + child.duration_us)
            elif child.category == CAT_RPC:
                agg.rpcs_total += 1
        for phase, total in per_phase.items():
            seen, acc = agg.phases.get(phase, (0, 0.0))
            agg.phases[phase] = (seen + 1, acc + total)
    return out


class _RefSpanIndex:
    """Every snapshotted span under its ``(process, span_id)`` key, with
    its global parent and children — the one index the cross-process
    validators and the phase fold share.

    Parent preference: an explicit cross-process link first, then the
    within-process dynamic parent, then a ``join_to`` edge (a 2PC fan-out
    leg joining back into the span that awaited it — legs run as their own
    tasks, so they have no dynamic parent), then the declared parent.  A
    parent that fell out of the ring (or lives in a process that was not
    snapshotted) leaves its child a root; the validators report it.
    """

    def __init__(self, snapshots: Iterable[Dict[str, Any]]):
        self.spans: Dict[Tuple[str, int], Span] = {}
        self.processes = set()
        for snap in snapshots:
            proc = snap.get("process", "")
            self.processes.add(proc)
            for span in _spans_of(snap):
                self.spans[(proc, span.span_id)] = span
        self.parent_of: Dict[Tuple[str, int], Optional[Tuple[str, int]]] = {}
        self.children: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
        for key, span in self.spans.items():
            parent = self._parent_key(key[0], span)
            if parent not in self.spans:
                parent = None
            self.parent_of[key] = parent
            if parent is not None:
                self.children.setdefault(parent, []).append(key)

    @staticmethod
    def _parent_key(proc: str, span: Span) -> Optional[Tuple[str, int]]:
        attrs = span.attrs or {}
        if "remote_parent_proc" in attrs:
            return (str(attrs["remote_parent_proc"]),
                    int(attrs.get("remote_parent_span", 0)))
        if span.dyn_parent_id:
            return (proc, span.dyn_parent_id)
        if attrs.get("join_to"):
            return (proc, int(attrs["join_to"]))
        if span.parent_id:
            return (proc, span.parent_id)
        return None

    def op_roots(self):
        """``(key, span)`` of every op span heading a tree, in key order."""
        for key, span in sorted(self.spans.items()):
            if span.category == CAT_OP and self.parent_of[key] is None:
                yield key, span

    def tree(self, root: Tuple[str, int]) -> List[Tuple[str, int]]:
        """Every key under ``root`` (itself included), each once."""
        seen = set()
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(self.children.get(node, ()))
        return order


def ref_cross_process_problems(snapshots: List[Dict[str, Any]]) -> List[str]:
    """Check the merged trace's cross-process structure; returns problems:
    every ``remote_parent_*`` reference must resolve to a snapshotted span
    in the named process (a dangling one would mean the re-parenting
    protocol lost an edge)."""
    index = _RefSpanIndex(snapshots)
    problems: List[str] = []
    for (proc, span_id), span in sorted(index.spans.items()):
        if "remote_parent_proc" not in (span.attrs or {}):
            continue
        target = _RefSpanIndex._parent_key(proc, span)
        if target[0] not in index.processes:
            problems.append(
                f"{proc}#{span_id} ({span.name}): remote parent process "
                f"{target[0]!r} was not snapshotted")
        elif target not in index.spans:
            problems.append(
                f"{proc}#{span_id} ({span.name}): remote parent "
                f"{target[0]}#{target[1]} not found (dropped span?)")
    return problems


def ref_op_tree_stats(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Connectivity stats for the merged trace: per-op-root tree sizes and
    the set of processes each tree touches (the e2e assertion surface)."""
    index = _RefSpanIndex(snapshots)
    trees = []
    for key, span in index.op_roots():
        nodes = index.tree(key)
        trees.append({"root": f"{key[0]}#{key[1]}", "op": span.name,
                      "spans": len(nodes),
                      "processes": sorted({node[0] for node in nodes})})
    return {"ops": len(trees), "trees": trees}


def ref_dyn_self_time_problems(snapshots: List[Dict[str, Any]],
                           tolerance_us: float = 1.0) -> List[str]:
    """Within each process, dynamic-tree self-times must be non-negative.

    Spans opened on one task stack nest strictly (a child's interval lies
    inside its dynamic parent's), so duration minus the sum of direct
    dynamic children must never go meaningfully negative — the telescoping
    property every downstream analysis assumes.  ``tolerance_us`` absorbs
    clock-read ordering dust on the wall clock.
    """
    problems: List[str] = []
    for snap in snapshots:
        proc = snap.get("process", "")
        spans = {s.span_id: s for s in _spans_of(snap)
                 if s.end_us is not None}
        child_us: Dict[int, float] = {}
        for span in spans.values():
            pid = span.dyn_parent_id
            if pid and pid in spans:
                child_us[pid] = child_us.get(pid, 0.0) + span.duration_us
        for span_id, span in sorted(spans.items()):
            self_us = span.duration_us - child_us.get(span_id, 0.0)
            if self_us < -tolerance_us:
                problems.append(
                    f"{proc}#{span_id} ({span.name}): negative self time "
                    f"{self_us:.1f}us")
    return problems


def ref_phase_breakdown(snapshots: List[Dict[str, Any]]) -> Dict[str, OpPhases]:
    """Fold every op root's *global* tree into per-kind phase costs.

    Charges land on exactly one span each (the innermost open one at
    charge time) and the server-side handler time is subtracted from the
    caller's wire charge, so summing a tree's charges — across processes,
    via the remote links — double-counts nothing.  Works identically on
    simulated and live snapshots; only successful ops are folded.
    """
    index = _RefSpanIndex(snapshots)
    out: Dict[str, OpPhases] = {}
    for key, span in index.op_roots():
        if not span.ok or span.end_us is None:
            continue
        agg = out.get(span.name)
        if agg is None:
            agg = out[span.name] = OpPhases(span.name)
        agg.count += 1
        agg.total_latency_us += span.duration_us
        for node in index.tree(key):
            costs = index.spans[node].costs
            if costs:
                for (kind, _host), us in costs.items():
                    folded = _fold_kind(kind)
                    agg.phase_us[folded] = agg.phase_us.get(folded, 0.0) + us
    return out


# ---------------------------------------------------------------------------
# The deque ring tracer (pre-column ``Tracer``).
# ---------------------------------------------------------------------------

class RefSpan:
    """One timed interval in the simulation, linked into a tree."""

    __slots__ = ("span_id", "parent_id", "name", "category", "host",
                 "start_us", "end_us", "attrs", "ok", "dyn_parent_id",
                 "root_id", "_costs", "_cost_us", "queue_res", "blocked",
                 "queue_by")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 category: str, host: Optional[str], start_us: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.host = host
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None
        self.ok = True
        self.dyn_parent_id = 0
        #: span_id of this span's tail-keep tree root (kept up to date only
        #: while the tracer has a keeper; a span starts as its own root).
        self.root_id = span_id
        #: ``None``, the one (cost-kind, host) key charged so far (its
        #: microseconds in ``_cost_us``), or a dict once there are two.
        self._costs: Any = None
        self._cost_us = 0.0
        #: (resource, host) -> queue microseconds, refining the ``queue``
        #: entries in :attr:`costs` by what was waited on (cpu/disk/latch).
        #: A strict decomposition: summed per host it never exceeds the
        #: host's ``queue`` cost.  ``None`` until the first tagged charge.
        self.queue_res: Optional[Dict[Tuple[str, Optional[str]],
                                      float]] = None
        #: (cause-frame, cost-kind, host) -> microseconds this span spent
        #: *blocked on another process's* work (e.g. a Raft commit wait
        #: decomposed into batch-window queue / leader fsync / replication
        #: wire).  Unlike :attr:`costs` these are a refinement of the
        #: span's idle residual, not additional cost — the profiler
        #: ignores them; the critical-path analyzer consumes them.
        self.blocked: Optional[Dict[Tuple[str, str, Optional[str]],
                                    float]] = None
        #: (culprit-op, culprit-tenant, resource, host) -> queue
        #: microseconds, refining :attr:`queue_res` by the *occupant* whose
        #: departure admitted this span's process to the resource — the
        #: who-delayed-whom tags the blame matrix folds.  Summed per
        #: (resource, host) it equals the matching :attr:`queue_res` entry
        #: exactly (unknown occupants land under ``"(unknown)"``).
        #: ``None`` until the first occupant-tagged charge.
        self.queue_by: Optional[Dict[Tuple[str, Optional[str], str,
                                           Optional[str]], float]] = None

    @property
    def costs(self) -> Optional[Mapping[Tuple[str, Optional[str]], float]]:
        """(cost-kind, host) -> simulated microseconds charged while this
        span was innermost, in first-charge order; ``None`` until the first
        charge. Read-only."""
        held = self._costs
        if held is None:
            return None
        if type(held) is dict:
            return MappingProxyType(held)
        return MappingProxyType({held: self._cost_us})

    def add_cost(self, key: Tuple[str, Optional[str]], us: float) -> None:
        """Accumulate ``us`` of cost under ``key`` = (kind, host), kind one
        of cpu/fsync/wire/queue."""
        held = self._costs
        if held is None:
            self._costs = key
            self._cost_us = 0.0 + us
        elif type(held) is dict:
            held[key] = held.get(key, 0.0) + us
        elif held == key:
            self._cost_us += us
        else:
            self._costs = {held: self._cost_us, key: 0.0 + us}

    def add_queue_resource(self, key: Tuple[str, Optional[str]],
                           us: float) -> None:
        """Refine a ``queue`` charge by ``key`` = (resource waited on,
        host)."""
        res = self.queue_res
        if res is None:
            res = self.queue_res = {}
        res[key] = res.get(key, 0.0) + us

    def add_blocked(self, key: Tuple[str, str, Optional[str]],
                    us: float) -> None:
        """Accumulate blocked-on time under ``key`` = (cause, kind, host)."""
        blocked = self.blocked
        if blocked is None:
            blocked = self.blocked = {}
        blocked[key] = blocked.get(key, 0.0) + us

    def add_queue_by(self, key: Tuple[str, Optional[str], str,
                                      Optional[str]], us: float) -> None:
        """Tag queue time with ``key`` = (op, tenant, resource, host): the
        occupant that preceded it on that resource."""
        by = self.queue_by
        if by is None:
            by = self.queue_by = {}
        by[key] = by.get(key, 0.0) + us

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def annotate(self, **attrs) -> None:
        """Attach free-form attributes (cache outcome, batch size, ...)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.category}/{self.name!r} "
                f"parent={self.parent_id} host={self.host!r} "
                f"[{self.start_us}, {self.end_us}] ok={self.ok})")


class RefTracer:
    """Collects finished spans into a bounded ring buffer, and folds each
    ``op`` span into :attr:`aggregates` as it ends."""

    __slots__ = ("_ring", "_next_id", "started", "finished", "_sim",
                 "_stacks", "unattributed", "keeper", "_keys",
                 "_live_trees", "aggregates", "_pending")

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 keeper: Optional[TailKeeper] = None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._ring: collections.deque = collections.deque(maxlen=max_spans)
        self._next_id = 0
        self.keeper = keeper
        #: Every cost-map key charged so far, mapped to itself: spans share
        #: one tuple per distinct key instead of holding one per charge.
        self._keys: Dict[tuple, tuple] = {}
        #: root span_id -> finished spans of its still-open tree.
        self._live_trees: Dict[int, List[RefSpan]] = {}
        #: op name -> :class:`OpAggregate` of every op span that ended, so
        #: the phase tables need no ring.
        self.aggregates: Dict[str, OpAggregate] = {}
        #: span_id -> the finished ``phase``/``rpc`` spans that declared it
        #: as parent, folded (``op``) or dropped when it ends; a child that
        #: ends after its parent is not folded.
        self._pending: Dict[int, List[RefSpan]] = {}
        self.started = 0
        self.finished = 0
        # Cost attribution.  ``_stacks`` maps the simulator's currently
        # executing process to its stack of open spans; ``charge`` lands on
        # the stack top.  An unbound tracer (no ``bind`` call) degrades to a
        # single shared stack — fine for single-process unit tests, wrong
        # for concurrent workloads, which is why every assignment site binds.
        self._sim = None
        self._stacks: Dict[Any, List[Any]] = {}
        #: (host, cost-kind) -> us charged while no span was open.  Keeps
        #: profiler-vs-telemetry reconciliation exact.
        self.unattributed: Dict[Tuple[Optional[str], str], float] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose active process keys the span stacks."""
        self._sim = sim

    @property
    def spans(self) -> Sequence[RefSpan]:
        """Finished spans, oldest first (a snapshot-free live view)."""
        return self._ring

    @property
    def dropped(self) -> int:
        """Finished spans that fell out of the ring."""
        return self.finished - len(self._ring)

    def begin(self, name: str, now: float, category: str = "",
              parent: Any = None, host: Optional[str] = None) -> RefSpan:
        """Open a span."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        remote = None
        if isinstance(parent, RemoteSpanRef):
            remote, parent = parent, None
        self._next_id += 1
        self.started += 1
        span = RefSpan(self._next_id, parent.span_id if parent is not None else 0,
                    name, category, host, now)
        if stack:
            span.dyn_parent_id = stack[-1].span_id
        if remote is not None:
            span.annotate(remote_parent_proc=remote.proc,
                          remote_parent_span=remote.span_id)
        if self.keeper is not None:
            # Tree membership follows the opening process's stack: its
            # bottom span is this process's tree root (the op root for
            # client work, the fan-out wrapper for spawned legs).
            if stack:
                span.root_id = stack[0].root_id
        if stack is None:
            self._stacks[proc] = [span]
        else:
            stack.append(span)
        return span

    def current_span(self):
        """The innermost open span of the currently executing process, or
        ``None``."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        return stack[-1] if stack else None

    def end(self, span, now: float, ok: bool = True) -> None:
        """Close a span and commit it to the ring."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # A child leaked open (exception unwound past its end call):
                # truncate through it so the stack mirrors reality again.
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is span:
                        del stack[i:]
                        break
            if not stack:
                del self._stacks[proc]
        span.end_us = now
        span.ok = ok
        self.finished += 1
        self._ring.append(span)
        pending = self._pending
        kids = pending.pop(span.span_id, ())
        category = span.category
        if category == CAT_OP:
            agg = self.aggregates.get(span.name)
            if agg is None:
                agg = self.aggregates[span.name] = OpAggregate(span.name)
            agg.add(span, kids)
        elif (category == CAT_PHASE or category == CAT_RPC) \
                and span.parent_id:
            siblings = pending.get(span.parent_id)
            if siblings is None:
                pending[span.parent_id] = [span]
            else:
                siblings.append(span)
        if self.keeper is not None:
            root_id = span.root_id
            tree = self._live_trees.get(root_id)
            if tree is None:
                tree = self._live_trees[root_id] = []
            tree.append(span)
            if span.span_id == root_id:
                del self._live_trees[root_id]
                if span.category == CAT_OP:
                    self.keeper.offer(span, tree)

    def charge(self, kind: str, us: float, host: Optional[str] = None,
               resource: Optional[str] = None,
               by: Optional[Tuple[str, Optional[str]]] = None) -> None:
        """Attribute ``us`` simulated microseconds of ``kind`` cost."""
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            keys = self._keys
            key = (kind, host)
            top.add_cost(keys.setdefault(key, key), us)
            if resource is not None:
                key = (resource, host)
                top.add_queue_resource(keys.setdefault(key, key), us)
                key = self._queue_by_key(by, resource, host)
                top.add_queue_by(keys.setdefault(key, key), us)
            return
        key = (host, kind)
        bucket = self.unattributed
        bucket[key] = bucket.get(key, 0.0) + us

    def charge_blocked(self, cause: str, kind: str, us: float,
                       host: Optional[str] = None,
                       resource: Optional[str] = None,
                       by: Optional[Tuple[str, Optional[str]]] = None
                       ) -> None:
        """Attribute ``us`` of blocked-on time to the innermost open span."""
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            keys = self._keys
            key = (cause, kind, host)
            top.add_blocked(keys.setdefault(key, key), us)
            if resource is not None:
                key = self._queue_by_key(by, resource, host)
                top.add_queue_by(keys.setdefault(key, key), us)

    @staticmethod
    def _queue_by_key(by: Optional[Tuple[str, Optional[str]]],
                      resource: str, host: Optional[str]) -> tuple:
        """The (op, tenant, resource, host) occupant tag of a charge."""
        if by is None:
            return ("(unknown)", None, resource, host)
        return (by[0], by[1], resource, host)

    def current_op_label(self) -> Optional[Tuple[str, Optional[str]]]:
        """The ``(op, tenant)`` identity of the currently executing
        process, for occupant tagging."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if not stack:
            return None
        root = stack[0]
        attrs = root.attrs
        if root.category == CAT_OP:
            return (root.name, attrs.get("tenant") if attrs else None)
        if attrs:
            label = attrs.get("op_label")
            if label is not None:
                return (label[0], label[1])
        return (root.name, None)

    def open_costs(self) -> Dict[Tuple[Optional[str], str], float]:
        """(host, cost-kind) -> us charged to spans still open: work in
        flight when the run stopped (a background compaction round, a
        follower mid-append), which telemetry's busy counters include but
        no finished span — so no profile — carries."""
        out: Dict[Tuple[Optional[str], str], float] = {}
        for stack in self._stacks.values():
            for span in stack:
                for (kind, host), us in (span.costs or {}).items():
                    out[(host, kind)] = out.get((host, kind), 0.0) + us
        return out

    def retained_spans(self) -> List[RefSpan]:
        """Every span still held: the ring plus kept tail trees, deduped
        and ordered by span id (creation order, deterministic)."""
        if self.keeper is None:
            return list(self._ring)
        seen = set()
        out: List[RefSpan] = []
        for span in self._ring:
            seen.add(span.span_id)
            out.append(span)
        for span in self.keeper.spans():
            if span.span_id not in seen:
                seen.add(span.span_id)
                out.append(span)
        out.sort(key=lambda s: s.span_id)
        return out

    def reset(self) -> None:
        """Drop every collected span (counters restart too)."""
        self._ring.clear()
        self._next_id = 0
        self.started = 0
        self.finished = 0
        self._stacks.clear()
        self.unattributed.clear()
        self._keys.clear()
        self._live_trees.clear()
        self.aggregates.clear()
        self._pending.clear()
        if self.keeper is not None:
            self.keeper.reset()


# ---------------------------------------------------------------------------
# The ascending integer-rank bucket walk (pre-``Sketch`` quantile).
# ---------------------------------------------------------------------------

def ref_bucket_quantile(counts: Dict[int, int], q: float) -> float:
    """The first bucket, ascending, whose cumulative count exceeds rank
    ``ceil(q * n) - 1``; 0.0 for an empty map."""
    n = sum(counts.values())
    if n == 0:
        return 0.0
    rank = max(0, int(math.ceil(q * n)) - 1)
    cum = 0
    for bucket in sorted(counts):
        cum += counts[bucket]
        if cum > rank:
            return digest_bucket_value(bucket)
    return digest_bucket_value(max(counts))
