"""Reference implementations the product is held to, kept as test oracles.

The all-heap scheduler.  ``repro.sim.core`` schedules in two tiers — a
``(time, seq)`` heap for delayed events, a FIFO deque for zero-delay ones —
and claims the resulting order is exactly what one heap would give.
:class:`AllHeapSimulator` *is* that one heap: every zero-delay site in the
product does ``sim._micro.append(entry)``, so swapping ``_micro`` for an
object whose ``append`` takes the next sequence number and pushes onto the
heap, plus a pop-and-deliver loop, runs every entry in ``(time, seq)``
order.

The request-then-timeout host.  The product charges CPU and disk with one
kernel-driven :class:`~repro.sim.host.Slice` per charge, and claims the
order is exactly what a holder process gets by requesting the slot,
resuming on the grant, then waiting out a ``Timeout``.
:func:`request_timeout_hosts` swaps that generator back in.  Under a tracer
every RPC runs its handler generator too, so a traced run inside the block
is the generator path end to end — the reference an untraced run, with its
kernel-driven unary RPCs and slices, must equal.
"""

import contextlib
from heapq import heappop, heappush

import pytest

from repro.baselines import infinifs, locofs, tectonic
from repro.core import multitenant, service
from repro.errors import ServiceUnavailableError
from repro.sim.core import Simulator, Timeout
from repro.sim.host import Host


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
    """``Host._occupy`` as a holder process: request, grant, timeout."""
    if host.crashed:
        raise ServiceUnavailableError(host.name)
    sim = host.sim
    req = resource.request()
    try:
        yield req
        yield Timeout(sim, us)
        if resource is host.cpu:
            host.cpu_busy_us += us
        else:
            host.fsync_count += 1
    finally:
        resource.release(req)  # withdraws it if never granted
    if resource is host.cpu and host.crashed:
        raise ServiceUnavailableError(host.name)


@contextlib.contextmanager
def request_timeout_hosts():
    """Inside the block every host charges through
    :func:`_request_then_timeout` instead of a slice."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Host, "_occupy", _request_then_timeout)
        yield
