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
"""

import bisect
import contextlib
import itertools
import random
from heapq import heappop, heappush

import pytest

from repro.baselines import infinifs, locofs, tectonic
from repro.baselines.common import StorageMixin
from repro.core import multitenant, service
from repro.errors import NoSuchPathError, ServiceUnavailableError
from repro.paths import normalize, parent_and_name
from repro.sim.core import Simulator, Timeout
from repro.sim.host import Host
from repro.sim.network import Network
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
        for module in (service, multitenant, tectonic, infinifs, locofs):
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
