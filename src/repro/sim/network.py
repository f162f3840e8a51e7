"""RTT-charged request/response RPC and the server dispatch base class.

An RPC charges one-way latency each direction; the handler body runs inline
in the calling process (request/response semantics) but charges the *target
host's* CPU via ``host.work``, so server-side queueing delays are modelled
faithfully.  Asynchronous messaging (Raft) uses :class:`repro.sim.resources.Store`
mailboxes instead.

A handler that is one CPU charge between two plain computations is declared
:func:`unary`.  Such an RPC is one :class:`_UnaryCall` event the kernel
steps through out-flight, grant, work, body and back-flight, so the caller
resumes once, with the reply.  Every other handler runs as a generator in
the caller's process.  A tracer or telemetry changes what is recorded,
never which of the two runs.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceUnavailableError
from repro.sim.core import _PENDING, Simulator, Timeout
from repro.sim.host import Host, Slice
from repro.sim.stats import OpContext


def unary(declaration: Callable) -> Callable:
    """Declare an ``rpc_<method>`` handler as one CPU charge between two
    plain computations.

    ``declaration(self, *args, **kwargs)`` runs when the request arrives
    and returns ``(us, then, arg)``: the CPU to charge on the server's
    host, then what the reply is once it is charged — ``then(arg)``, or
    ``arg`` itself when ``then`` is None.  Simulated calls hand the
    declaration to the kernel (``Network.rpc``); the generator handler
    derived here from the same declaration serves live calls, so there is
    no second copy of the body.
    """
    @functools.wraps(declaration)
    def handler(self, *args, **kwargs):
        us, then, arg = declaration(self, *args, **kwargs)
        yield from self.runtime.work(self.host, us)
        return arg if then is None else then(arg)

    handler.unary = declaration
    return handler


#: Stages of a :class:`_UnaryCall`.
_OUT, _AT_SERVER, _REPLYING, _ABANDONED = range(4)


class _UnaryCall(Slice):
    """One RPC to a :func:`unary` handler, stepped by the kernel.

    The call is the server's CPU :class:`~repro.sim.host.Slice`, with a
    flight on each side.  It makes the events a handler generator would
    make, in the same order: the flight out; on arrival the host's crash
    check, the declaration and the CPU request; the charge; then the body
    and the flight back, which carries the call itself (result or
    exception) to the caller.  Between the flights it is only ever on the
    kernel's tiers as a ``(function, call)`` pair, so nobody waiting on it
    runs before the reply lands.

    Under the caller's ``rpc:`` span (``span``) the call records what the
    caller's process would have: on arrival it charges the flight out as
    ``wire`` and opens the ``rpc_<method>`` handler span (``hspan``), which
    it closes at the reply, or with ``ok=False`` on a raise or when the
    caller withdraws.  It publishes its holder as the running process
    meanwhile, as a slice does for its charges.  ``sent_us`` is when the
    last flight left.
    """

    __slots__ = ("network", "server", "declaration", "args", "kwargs",
                 "span", "hspan", "sent_us", "_stage", "_then", "_arg")

    def __init__(self, network: "Network", server: "Server",
                 declaration: Callable, args: tuple, kwargs: dict, span):
        sim = network.sim
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._granted = False
        self.network = network
        self.server = server
        self.declaration = declaration
        self.args = args
        self.kwargs = kwargs
        self.holder = sim._active_process
        self.span = span
        self.hspan = None
        self.sent_us = sim._now
        self._stage = _OUT
        network._fly((_UnaryCall._arrive, self))

    def _arrive(self) -> None:
        if self._stage != _OUT:
            return
        sim = self.sim
        server = self.server
        host = self.host = server.host
        if self.span is not None:
            tracer = sim.tracer
            running, sim._active_process = sim._active_process, self.holder
            tracer.charge("wire", sim._now - self.sent_us, host.name)
            if not host.crashed:
                self.hspan = tracer.begin(
                    self.declaration.__name__, sim._now,
                    category="handler", parent=self.span, host=host.name)
            sim._active_process = running
        if host.crashed:
            return self._reply(False, ServiceUnavailableError(host.name))
        try:
            self.us, self._then, self._arg = self.declaration(
                server, *self.args, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 - the handler's error
            return self._reply(False, exc)
        self._stage = _AT_SERVER
        cpu = self.resource = host.cpu
        self._enqueue_time = sim._now
        cpu.acquire(self)

    def _expiry(self):
        return (_UnaryCall._worked, self)

    def _worked(self) -> None:
        if self._stage != _AT_SERVER:
            return
        error = self._settle()
        if error is not None:
            return self._reply(False, error)
        then = self._then
        try:
            value = self._arg if then is None else then(self._arg)
        except BaseException as exc:  # noqa: BLE001 - the handler's error
            return self._reply(False, exc)
        self._reply(True, value)

    def _reply(self, ok: bool, value: Any) -> None:
        sim = self.sim
        if self.hspan is not None:
            running, sim._active_process = sim._active_process, self.holder
            sim.tracer.end(self.hspan, sim._now, ok=ok)
            sim._active_process = running
        self._stage = _REPLYING
        self._ok = ok
        self._value = value
        self.sent_us = sim._now
        self.network._fly(self)

    def withdraw(self) -> bool:
        """The caller stopped waiting (an interrupt).  Stop the call where
        it is; True when the server had the request, so the caller still
        owes the flight back, as a handler generator does."""
        stage, self._stage = self._stage, _ABANDONED
        if stage == _AT_SERVER:
            self.abandon()  # the CPU request: leave the queue or hand on
            if self.hspan is not None:
                self.sim.tracer.end(self.hspan, self.sim._now, ok=False)
            return True
        self._defused = True  # a reply in flight now reaches no one
        return False


class Network:
    """Shared cluster fabric with a fixed one-way latency (optional jitter)."""

    def __init__(self, sim: Simulator, one_way_us: float = 50.0,
                 jitter_frac: float = 0.0, seed: int = 7):
        self.sim = sim
        self.one_way_us = one_way_us
        self.jitter_frac = jitter_frac
        self._rng = random.Random(seed)
        self.rpc_count = 0
        self.message_count = 0

    def _sample_one_way(self) -> float:
        if self.jitter_frac <= 0:
            return self.one_way_us
        spread = self.one_way_us * self.jitter_frac
        return max(1.0, self.one_way_us + self._rng.uniform(-spread, spread))

    def _delay(self) -> float:
        """Count one message and draw its one-way latency."""
        self.message_count += 1
        if self.jitter_frac <= 0:
            # Jitter-free fast path: fixed latency, no RNG draw.
            return self.one_way_us
        return self._sample_one_way()

    def _fly(self, entry) -> None:
        """Deliver ``entry`` (an event or a ``(function, arg)`` pair) one
        message flight from now."""
        self.sim._at(self._delay(), entry)

    def transit(self):
        """One-way message flight."""
        yield Timeout(self.sim, self._delay())

    def rpc(self, server: "Server", method: str, *args,
            ctx: Optional[OpContext] = None, **kwargs):
        """Request/response round trip to ``server``.

        Counts one RPC round on the network and on ``ctx`` when provided —
        the counter behind the Table 1 RTT comparison.  A :func:`unary`
        handler is one :class:`_UnaryCall`; any other runs here, between
        the two flights.  Under an enabled tracer each round trip opens an
        ``rpc``-category span (parented to the operation's root span when
        ``ctx`` carries one) covering both flights, and the handler span
        nests inside it.
        """
        self.rpc_count += 1
        if ctx is not None:
            ctx.rpcs += 1
        sim = self.sim
        tracer = sim.tracer
        span = started_us = None
        if tracer.enabled:
            span = tracer.begin(
                "rpc:" + method, sim._now, category="rpc",
                parent=ctx.trace if ctx is not None else None,
                host=server.host.name)
        telemetry = sim.telemetry
        if telemetry.enabled:
            started_us = sim._now
            telemetry.counter("rpc.count", server.host.name).add(started_us)
            telemetry.gauge("rpc.in_flight").adjust(started_us, 1.0)
        declaration = server.unary_handlers.get(method)
        if declaration is not None:
            call = _UnaryCall(self, server, declaration, args, kwargs, span)
            try:
                result = yield call
            except BaseException as exc:
                if exc is not call._value:  # interrupted while waiting
                    if not call.withdraw():
                        raise
                    call.sent_us = sim._now
                    yield Timeout(sim, self._delay())
                if span is not None or started_us is not None:
                    self._landed(server, span, started_us, call.sent_us,
                                 False)
                raise
            if span is not None or started_us is not None:
                self._landed(server, span, started_us, call.sent_us, True)
            return result
        sent_us = sim._now
        yield Timeout(sim, self._delay())
        if span is not None:
            tracer.charge("wire", sim._now - sent_us, server.host.name)
        hspan = None
        ok = True
        try:
            handler = server.handler(method)
            if span is not None:
                hspan = tracer.begin("rpc_" + method, sim._now,
                                     category="handler", parent=span,
                                     host=server.host.name)
            result = yield from handler(*args, **kwargs)
        except BaseException:
            ok = False
            raise
        finally:
            if hspan is not None:
                tracer.end(hspan, sim._now, ok=ok)
            # The response (or error) still has to fly back.
            sent_us = sim._now
            yield Timeout(sim, self._delay())
            if span is not None or started_us is not None:
                self._landed(server, span, started_us, sent_us, ok)
        return result

    def _landed(self, server: "Server", span, started_us: Optional[float],
                sent_us: float, ok: bool) -> None:
        """Record a reply that landed: the flight back as ``wire``, the
        end of the ``rpc:`` span, the round trip's latency."""
        sim = self.sim
        now = sim._now
        if span is not None:
            tracer = sim.tracer
            tracer.charge("wire", now - sent_us, server.host.name)
            tracer.end(span, now, ok=ok)
        if started_us is not None:
            telemetry = sim.telemetry
            telemetry.gauge("rpc.in_flight").adjust(now, -1.0)
            telemetry.histogram("rpc.latency_us", server.host.name).record(
                now, now - started_us)


class Server:
    """Base class for services addressed by RPC.

    Subclasses implement handler generators named ``rpc_<method>``, or
    declare them :func:`unary`.  Handlers charge CPU on ``self.host``
    explicitly — through ``self.runtime`` — at the points where real work
    happens.

    The runtime is resolved from the host's ``sim`` object: a simulated
    :class:`~repro.sim.host.Host` answers with the kernel-backed
    :class:`~repro.runtime.base.SimRuntime`, while the live facade behind
    ``mantle-serve`` hands back the process's ``AsyncioRuntime`` — the same
    handler generators serve both worlds (see ``docs/runtime.md``).
    """

    #: ``method -> declaration`` of this class's :func:`unary` handlers.
    unary_handlers: Dict[str, Callable] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.unary_handlers = {
            name[len("rpc_"):]: handler.unary
            for name in dir(cls) if name.startswith("rpc_")
            for handler in (getattr(cls, name),) if hasattr(handler, "unary")}

    def __init__(self, host: Host):
        self.host = host
        self.runtime = host.sim.runtime

    @property
    def sim(self) -> Simulator:
        return self.host.sim

    def handler(self, method: str):
        """The ``rpc_<method>`` handler, once a request has arrived: raises
        :class:`ServiceUnavailableError` on a crashed host."""
        if self.host.crashed:
            raise ServiceUnavailableError(self.host.name)
        handler = getattr(self, "rpc_" + method, None)
        if handler is None:
            raise AttributeError(f"{type(self).__name__} has no RPC {method!r}")
        return handler

    def dispatch(self, method: str, args: tuple, kwargs: dict, span=None):
        handler = self.handler(method)
        tracer = self.sim.tracer
        if tracer.enabled:
            hspan = tracer.begin("rpc_" + method, self.sim.now,
                                 category="handler", parent=span,
                                 host=self.host.name)
            ok = True
            try:
                result = yield from handler(*args, **kwargs)
            except BaseException:
                ok = False
                raise
            finally:
                tracer.end(hspan, self.sim.now, ok=ok)
        else:
            result = yield from handler(*args, **kwargs)
        return result

