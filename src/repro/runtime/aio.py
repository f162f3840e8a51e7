"""The asyncio implementation of the :class:`~repro.runtime.base.Runtime`.

Domain code is written as plain generators that ``yield from`` runtime
methods.  Under :class:`AsyncioRuntime` those methods yield small *effect*
objects; :meth:`AsyncioRuntime.drive` is the trampoline that steps the
generator with ``send``/``throw``, awaiting each effect on the real event
loop:

* ``_Sleep``   -> ``asyncio.sleep``
* ``_Rpc``     -> one multiplexed request/response round trip over TCP
* ``_Gather``  -> ``asyncio.gather`` over sub-generators (the 2PC fan-out)
* ``_Offload`` -> a blocking call on a worker thread (a real ``os.fsync``,
  the live single-node Raft's durable append)

``work()`` is deliberately a no-op: in the simulator it charges modelled
CPU, live the real computation already happened on this very event loop.
That asymmetry is the point of the sim-vs-live comparison
(``mantle-exp live fig12``), not a bug.

This module also carries both halves of the TCP transport, built on one
:class:`FrameProtocol`: the client-side :class:`RpcConnection`/
:class:`RemoteService` (per-request ids, response futures, one timer per
call as its deadline) and the server-side :class:`WireServer` that exposes
any object with sim-``Server``-compatible ``dispatch`` over the wire.
Transport faults map onto the :class:`~repro.errors.TransportError` branch,
so domain retry loops treat a dropped connection exactly like a crashed
simulated host.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import time
from typing import Any, Dict, Iterable, Optional, Set

from repro.errors import (
    ConnectionLostError,
    FrameError,
    MetadataError,
    RPCTimeoutError,
)
from repro.runtime import wire
from repro.runtime.base import Runtime
from repro.sim.telemetry import NULL_TELEMETRY
from repro.sim.trace import NULL_TRACER, RemoteSpanRef

#: Default per-RPC response deadline.  Generous: live ops are millisecond
#: scale, and a smoke run on a loaded CI box must not flake.
DEFAULT_RPC_TIMEOUT_S = 30.0


# The effects a driven generator yields.  ``_Rpc.trace`` is cross-process
# span context to stamp on the request frame; the effect resolves to
# ``(result, response envelope)`` so a traced ``rpc()`` can split
# round-trip time into wire vs remote handler time (``srv_us``).
_Sleep = collections.namedtuple("_Sleep", "us")
_Rpc = collections.namedtuple("_Rpc", "service method args kwargs trace")
_Gather = collections.namedtuple("_Gather", "generators")
_Offload = collections.namedtuple("_Offload", "fn args")


class AsyncioRuntime(Runtime):
    """Real execution environment: asyncio TCP, wallclock, worker-thread
    fsync.  ``now`` is microseconds since runtime construction, so live
    latencies read on the same scale as simulated ones.

    ``tracer``/``telemetry`` are the same instrument types the simulator
    carries (wall-clock fed instead of sim-clock fed); they default to the
    null singletons so an uninstrumented runtime pays one attribute load
    per site — the zero-cost-off contract the live smoke baseline pins.
    ``epoch_us`` records the wall-clock epoch (``time.time()``) of the
    runtime's t0, which is what lets the trace merge put spans from
    processes with different monotonic origins on one time axis.
    """

    kind = "aio"

    def __init__(self, rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
                 tracer=None, telemetry=None, process_name: str = "live"):
        self.rpc_timeout_s = rpc_timeout_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self.process_name = process_name
        self._t0 = time.monotonic()
        self.epoch_us = time.time() * 1e6
        #: The generator the trampoline is stepping right now.  Published
        #: before every resume — what ``sim._active_process`` is to the
        #: kernel — so the tracer keeps one span stack per request whether
        #: a handler runs inside the read callback or on a task of its own.
        self.active = None

    # -- Runtime surface (generators yielding effects) ----------------------

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1e6

    def sleep(self, us: float):
        yield _Sleep(us)

    def work(self, host, us: float):
        # Real CPU time is real; nothing to charge.
        return
        yield  # pragma: no cover

    def offload(self, fn, *args):
        """Run blocking ``fn(*args)`` on a worker thread, so the event loop
        never waits on the device (live-only)."""
        result = yield _Offload(fn, args)
        return result

    def fsync(self, host, us: float):
        # The live analogue of the simulator's modelled fsync charge:
        # measure the executor round trip (queueing to a worker thread
        # included, exactly as the sim's disk FIFO queueing is).
        started = self.now
        yield _Offload(host.do_fsync, ())
        host.fsyncs += 1  # on the loop side: worker threads share the host
        now = self.now
        if self.tracer.enabled:
            self.tracer.charge("fsync", now - started, host.name)
        if self.telemetry.enabled:
            self.telemetry.counter("host.fsync", host.name).add(now)
            self.telemetry.counter("host.disk_busy_us", host.name,
                                   capacity=1.0).add_interval(
                started, now, now - started)

    def rpc(self, service, method: str, *args, ctx=None, **kwargs):
        """One round trip to ``service``.  Traced, it opens an rpc span
        parented like the simulated ``Network.rpc``'s (the op context's
        root, falling back to the innermost open span), ships span context
        on the frame, and charges the round trip as wire cost plus what the
        remote handler reports it cost."""
        if ctx is not None:
            ctx.rpcs += 1
        tracer = self.tracer
        telemetry = self.telemetry
        span = trace_ctx = started = None
        if tracer.enabled or telemetry.enabled:
            name = getattr(service, "name", None) or str(service)
            if tracer.enabled:
                parent = (ctx.trace if ctx is not None
                          else tracer.current_span())
                span = tracer.begin("rpc:" + method, self.now,
                                    category="rpc", parent=parent, host=name)
                trace_ctx = {"proc": self.process_name,
                             "span": span.span_id}
            started = self.now
            if telemetry.enabled:
                telemetry.counter("rpc.count", name).add(started)
                telemetry.gauge("rpc.in_flight").adjust(started, 1.0)
        ok = True
        try:
            result, envelope = yield _Rpc(service, method, args, kwargs,
                                          trace_ctx)
        except BaseException:
            ok = False
            raise
        finally:
            if started is not None:
                now = self.now
                if telemetry.enabled:
                    telemetry.gauge("rpc.in_flight").adjust(now, -1.0)
                    telemetry.histogram("rpc.latency_us", name).record(
                        now, now - started)
                if span is not None:
                    if ok:
                        charge_round_trip(tracer, now - started, envelope,
                                          name)
                    tracer.end(span, now, ok=ok)
        return result

    def gather(self, generators: Iterable):
        results = yield _Gather(list(generators))
        return results

    def propose(self, node, command):
        result = yield from node.commit(command)
        return result

    # -- the trampoline -----------------------------------------------------

    async def drive(self, generator, waiting=None, timing=None) -> Any:
        """Run one domain generator to completion, awaiting its effects.

        ``waiting`` is the awaitable of an effect the generator has already
        yielded: the :class:`WireServer` takes a handler's first step (and
        begins its first effect) itself and only comes here, on a task,
        when the handler turned out to wait.  ``timing`` (traced requests)
        accumulates how long the generator spent suspended on effects.
        """
        try:
            if waiting is None:
                self.active = generator
                waiting = self.begin(generator.send(None), timing)
            while True:
                try:
                    value = await waiting
                except BaseException as exc:  # delivered into the generator
                    step, value = generator.throw, exc
                else:
                    step = generator.send
                if timing is not None:
                    timing.awaited += self.now - timing.paused
                self.active = generator
                waiting = self.begin(step(value), timing)
        except StopIteration as stop:
            return stop.value

    def begin(self, effect, timing=None):
        """Start ``effect`` now — the request frame is written, the worker
        thread has its call — and return the awaitable that completes it."""
        if timing is not None:
            timing.paused = self.now
        kind = type(effect)
        if kind is _Rpc:
            return effect.service.call(
                effect.method, effect.args, effect.kwargs,
                timeout_s=self.rpc_timeout_s, trace=effect.trace)
        if kind is _Offload:
            return asyncio.get_running_loop().run_in_executor(
                None, effect.fn, *effect.args)
        if kind is _Sleep:
            return asyncio.sleep(effect.us / 1e6)
        if kind is _Gather:
            return asyncio.gather(*(self.drive(g) for g in effect.generators))
        raise RuntimeError(
            f"generator yielded a non-effect to AsyncioRuntime: {effect!r} "
            "(a simulator event leaked through the runtime seam)")


def charge_round_trip(tracer, elapsed_us: float, envelope: dict,
                      host: str) -> None:
    """Split one traced round trip on the caller's open span: what the
    server's handler reports it cost — ``cpu`` inside its own steps,
    ``queue`` from frame arrival to handler start — and the rest of the
    time outside the handler (``srv_us`` is its wall time) as ``wire``."""
    tracer.charge("wire", max(0.0, elapsed_us - envelope.get("srv_us", 0.0)),
                  host)
    tracer.charge("cpu", envelope.get("srv_cpu_us", 0.0), host)
    tracer.charge("queue", envelope.get("srv_queue_us", 0.0), host)


# -- the framed transport ----------------------------------------------------

class FrameProtocol(asyncio.Protocol):
    """One end of a connection carrying length-prefixed frames.

    ``data_received`` parses every complete frame the segment holds and
    hands each to the subclass's ``frame_received(payload)``, so coalesced
    frames cost one wakeup.  A framing fault — an oversized declared
    length, an undecodable payload, a truncated tail at EOF — closes the
    connection and is what the subclass's ``closed(fault)`` is told; a
    clean close reports ``None``.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._decoder = wire.FrameDecoder()
        self._fault: Optional[FrameError] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self._decoder.feed(data):
                if type(payload) is not dict:
                    raise FrameError("frame is not a JSON object")
                self.frame_received(payload)
        except FrameError as exc:
            self._fault = exc
            self.transport.close()

    def eof_received(self) -> None:
        try:
            self._decoder.check_eof()
        except FrameError as exc:
            self._fault = exc
        # Returning None closes the transport; connection_lost follows.

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.closed(self._fault)


# -- client-side transport ---------------------------------------------------

class RpcConnection(FrameProtocol):
    """One multiplexed TCP connection: concurrent in-flight requests carry
    distinct ids and the read callback resolves each response frame's
    future.  Connects on first use and again after a loss."""

    def __init__(self, endpoint: str):
        super().__init__()
        self.endpoint = endpoint
        #: request id -> (response future, deadline timer)
        self._pending: Dict[int, tuple] = {}
        self._next_id = 0
        self._connect_lock = asyncio.Lock()
        #: Set while the transport's write buffer is over its high-water
        #: mark (the peer is not reading); calls wait on it before writing.
        self._drained: Optional[asyncio.Future] = None

    def call(self, method: str, args: tuple, kwargs: dict,
             timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
             trace: Optional[dict] = None):
        """Begin one request/response round trip — the frame is written
        before this returns, unless the connection first has to be made or
        drained — and return its awaitable, which resolves to ``(result,
        payload)``: the response envelope carries the server's handler
        cost (``srv_us``) when it is traced.  ``trace`` rides the request
        envelope as cross-process span context."""
        if self.transport is None or self._drained is not None:
            return self._call_when_writable(method, args, kwargs, timeout_s,
                                            trace)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._next_id += 1
        request_id = self._next_id
        try:
            if self.transport.is_closing():
                raise ConnectionLostError(self.endpoint, "connection closing")
            self.transport.write(wire.encode_request(
                request_id, method, args, kwargs, trace=trace))
        except MetadataError as exc:  # closing, or an unencodable argument
            future.set_exception(exc)
            return future
        deadline = loop.call_later(timeout_s, self._expire, request_id,
                                   timeout_s)
        self._pending[request_id] = (future, deadline)
        return future

    async def _call_when_writable(self, *call) -> Any:
        if self.transport is None:
            await self._connect()
        while self._drained is not None:
            await self._drained
        return await self.call(*call)

    async def _connect(self) -> None:
        async with self._connect_lock:
            if self.transport is not None:
                return
            host, port = self.endpoint.rsplit(":", 1)
            self._decoder = wire.FrameDecoder()
            self._fault = None
            try:
                await asyncio.get_running_loop().create_connection(
                    lambda: self, host, int(port))
            except OSError as exc:
                raise ConnectionLostError(self.endpoint, str(exc)) from exc

    def _settle(self, request_id, result: Any = None,
                error: Optional[Exception] = None) -> None:
        future, deadline = self._pending.pop(request_id)
        deadline.cancel()
        if future.done():  # the caller gave up (cancelled) meanwhile
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def frame_received(self, payload: dict) -> None:
        request_id = payload.get("id")
        if request_id not in self._pending:
            return  # the call already hit its deadline: drop the late reply
        try:
            result = wire.decode_result(payload)
        except Exception as exc:  # noqa: BLE001 - the remote (typed) error
            self._settle(request_id, error=exc)
        else:
            self._settle(request_id, (result, payload))

    def _expire(self, request_id: int, timeout_s: float) -> None:
        self._settle(request_id,
                     error=RPCTimeoutError(self.endpoint, timeout_s))

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None and not drained.done():
            drained.set_result(None)

    def closed(self, fault: Optional[FrameError]) -> None:
        self._fail_all(fault or ConnectionLostError(
            self.endpoint, "connection closed"))

    def _fail_all(self, error: MetadataError) -> None:
        for request_id in list(self._pending):
            self._settle(request_id, error=error)
        self.resume_writing()  # waiting writers go on to reconnect

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
        self._fail_all(ConnectionLostError(self.endpoint, "closed"))


class RemoteService:
    """Client-side stub for one live service: a name plus a connection.

    This is what ``AsyncioRuntime.rpc`` dispatches to — the live
    counterpart of passing a simulated ``Server`` to ``Network.rpc``.
    """

    def __init__(self, name: str, connection: RpcConnection):
        self.name = name
        self.connection = connection
        self.call = connection.call


# -- server-side transport ---------------------------------------------------

class WireServer:
    """Serves a dispatchable object (live DBServer/IndexNodeService role, or
    the proxy facade) over length-prefixed frames.

    Each handler generator is stepped to its first effect inside the read
    callback: one that never waits (a TafDB read, an IndexNode lookup) is
    answered right there.  One that does wait has that effect begun right
    there (the onward request written, the fsync handed to its thread) and
    continues on a task of its own, so a slow 2PC prepare doesn't head-of-line-block an independent
    read on the same connection — the concurrency a real service has and
    the simulator models with processes.
    """

    def __init__(self, runtime: AsyncioRuntime, dispatcher,
                 host: str = "127.0.0.1", port: int = 0,
                 sock: Optional[socket.socket] = None):
        self.runtime = runtime
        self.dispatcher = dispatcher
        self.host = host
        self.port = port
        #: A listening socket bound before the server existed (inherited
        #: from a cluster parent); served instead of binding host:port.
        self.sock = sock
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["_ServerConnection"] = set()

    async def start(self) -> int:
        loop = asyncio.get_running_loop()
        if self.sock is not None:
            self._server = await loop.create_server(
                lambda: _ServerConnection(self), sock=self.sock)
        else:
            self._server = await loop.create_server(
                lambda: _ServerConnection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            await asyncio.sleep(0)  # let the closed connections report in
            self._server = None

    def _handle_obs(self, method: str):
        """Observability control RPCs, answered by the transport itself so
        every live role exposes them without dispatcher involvement."""
        from repro.runtime import obs

        if method == "obs.trace_snapshot":
            return obs.trace_snapshot_payload(self.runtime)
        if method == "obs.metrics_snapshot":
            return obs.metrics_snapshot_payload(self.runtime)
        if method == "obs.reset":
            self.runtime.tracer.reset()
            return {"ok": True}
        raise MetadataError(f"unknown observability RPC {method!r}")


class _Timing:
    """A traced request's clock (microseconds): frame arrival, handler
    start, when the handler last yielded an effect, and how long it has
    spent suspended on effects in total."""

    __slots__ = ("arrived", "started", "paused", "awaited")

    def __init__(self, arrived: float, started: float):
        self.arrived = arrived
        self.started = self.paused = started
        self.awaited = 0.0


class _ServerConnection(FrameProtocol):
    """One accepted connection of a :class:`WireServer`."""

    def __init__(self, server: WireServer):
        super().__init__()
        self.server = server
        self._tasks: Set[asyncio.Task] = set()
        self._arrived: Optional[float] = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        runtime = self.server.runtime
        if runtime.tracer.enabled:
            self._arrived = runtime.now
        super().data_received(data)

    # A peer that stops reading its responses stops being read from.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def frame_received(self, payload: dict) -> None:
        server = self.server
        runtime = server.runtime
        request_id = payload.get("id")
        timing = span = None
        try:
            method = payload["method"]
            if method.startswith("obs."):
                self._respond(request_id, None, server._handle_obs(method))
                return
            args = tuple(wire.from_jsonable(a)
                         for a in payload.get("args", ()))
            kwargs = {k: wire.from_jsonable(v)
                      for k, v in payload.get("kwargs", {}).items()}
            if self._arrived is not None:
                # Re-parent this handler onto the caller's span so the
                # merged trace shows one tree per op across processes.
                trace_ctx = payload.get("trace")
                if isinstance(trace_ctx, dict):
                    span = RemoteSpanRef(str(trace_ctx.get("proc", "")),
                                         int(trace_ctx.get("span", 0)))
                timing = _Timing(self._arrived, runtime.now)
            generator = server.dispatcher.dispatch(method, args, kwargs, span)
            runtime.active = generator
            waiting = runtime.begin(generator.send(None), timing)
        except StopIteration as stop:
            self._respond(request_id, timing, stop.value)
        except Exception as exc:  # noqa: BLE001 - report, don't kill the conn
            self._respond(request_id, timing, error=exc)
        else:
            task = asyncio.get_running_loop().create_task(
                self._finish(request_id, timing, generator, waiting))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _finish(self, request_id, timing, generator, waiting) -> None:
        try:
            result = await self.server.runtime.drive(generator, waiting,
                                                     timing)
        except Exception as exc:  # noqa: BLE001 - report, don't kill the conn
            self._respond(request_id, timing, error=exc)
        else:
            self._respond(request_id, timing, result)

    def _respond(self, request_id, timing: Optional[_Timing],
                 result: Any = None, error: Any = None) -> None:
        """Write one response frame.  A traced request's carries what its
        handler cost: wall time since the frame arrived (``srv_us``), the
        part of it before the handler started (``srv_queue_us``), and the
        part inside the handler's own steps — not awaiting an effect, which
        rpc/fsync charges cover — as ``srv_cpu_us``."""
        if error is None:
            cost = {}
            if timing is not None:
                srv_us = self.server.runtime.now - timing.arrived
                queue_us = timing.started - timing.arrived
                cost = {"srv_us": srv_us, "srv_queue_us": queue_us,
                        "srv_cpu_us": srv_us - queue_us - timing.awaited}
            try:
                frame = wire.encode_response(request_id, result=result,
                                             **cost)
            except Exception as exc:  # noqa: BLE001 - unencodable result
                error = exc
        if error is not None:
            frame = wire.encode_response(request_id, error=error)
        if self.transport is not None:  # else: client went away
            self.transport.write(frame)

    def closed(self, fault: Optional[FrameError]) -> None:
        self.server._connections.discard(self)
        for task in self._tasks:
            task.cancel()
