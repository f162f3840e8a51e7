"""``LiveClient``: the MantleClient surface over a real TCP cluster.

Where :class:`~repro.core.api.MantleClient` drives a simulated deployment
in-process, ``LiveClient`` speaks the typed op registry
(:mod:`repro.ops`) over the live wire protocol to a ``mantle-serve`` proxy:

    with LiveClient("127.0.0.1:7400") as client:
        client.mkdir("/a")
        client.create("/a/obj")
        print(client.objstat("/a/obj"))

The typed methods are the simulated client's own
(:class:`~repro.core.api.ClientOps`, defined once for both); result types
(``OpResult``/``StatResult``), exception types and per-op metrics mirror
it too, so benchmark and
test code can be parameterised over either — the agreement suite and
``mantle-exp live fig12`` do exactly that.  Latencies are wallclock
microseconds (the live runtime's clock), on the same scale simulated
latencies are reported in.

The client is a plain blocking socket: a call sends one frame and reads
frames until the reply with its id arrives; ``batch()`` pipelines its
frames and then collects the replies.  No event loop, no helper thread —
the calling thread does the I/O.  A lock makes each exchange atomic, so
threads may share an untraced client; to overlap requests (or to trace)
give each thread its own.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.api import ClientOps, op_result
from repro.errors import ConnectionLostError, MetadataError, RPCTimeoutError
from repro.ops import Op
from repro.runtime import wire
from repro.runtime.aio import DEFAULT_RPC_TIMEOUT_S, charge_round_trip
from repro.sim.stats import MetricSet, OpContext
from repro.sim.trace import CAT_OP, NULL_TRACER

_RECV_BYTES = 256 * 1024


class LiveClient(ClientOps):
    """Blocking client for a live Mantle proxy endpoint.

    Pass a :class:`~repro.sim.trace.Tracer` to root every op's
    cross-process span tree at the client: each ``perform`` opens an
    ``op``-category span (wall-clock, ``PROCESS_NAME`` process), ships its
    span id as trace context on the wire, and charges the round trip minus
    server time as wire cost (plus the proxy handler's own reported cost) —
    mirroring what the simulated client's op root plus ``Network.rpc``
    record.
    """

    #: Trace-context process name for client-side spans.
    PROCESS_NAME = "client"

    def __init__(self, endpoint: str,
                 rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
                 tracer=None):
        self.endpoint = endpoint
        self.rpc_timeout_s = rpc_timeout_s
        self.metrics = MetricSet()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The tracer's span-stack key (the client-side analogue of
        #: ``sim._active_process``): the request being sent or collected,
        #: so the ops of one ``batch()`` keep separate stacks.
        self._active_process: Optional[int] = None
        if self.tracer.enabled:
            self.tracer.bind(self)
        self._epoch_us = time.time() * 1e6
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._decoder = wire.FrameDecoder()
        self._next_id = 0
        self._closed = False

    @property
    def now_us(self) -> float:
        """Wallclock microseconds since client construction."""
        return (time.monotonic() - self._t0) * 1e6

    def trace_snapshot(self) -> dict:
        """This client's span buffer in the live snapshot format."""
        from repro.runtime.obs import snapshot_from_tracer

        return snapshot_from_tracer(self.PROCESS_NAME, self.tracer,
                                    epoch_us=self._epoch_us,
                                    now_us=self.now_us, clock="wallclock")

    # -- transport -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        host, port = self.endpoint.rsplit(":", 1)
        try:
            sock = socket.create_connection((host, int(port)),
                                            timeout=self.rpc_timeout_s)
        except OSError as exc:
            raise ConnectionLostError(self.endpoint, str(exc)) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = wire.FrameDecoder()
        self._sock = sock
        return sock

    def _drop(self) -> None:
        """Forget the connection after a fault; the next call reconnects."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _exchange(self, calls: Sequence[Tuple[str, tuple, Optional[dict]]]):
        """Pipeline ``calls`` — ``(method, args, trace context)`` each —
        and yield ``(position, payload)`` as each reply arrives, all under
        one ``rpc_timeout_s`` deadline.  Replies to calls that missed an
        earlier deadline are dropped.  Raises the transport error that
        lost the replies still owed; after anything but a receive timeout
        the connection is dropped and the next call reconnects."""
        if self._closed:
            raise RuntimeError("LiveClient is closed")
        with self._lock:
            sock = self._sock or self._connect()
            owed = {}
            frames = []
            for position, (method, args, trace) in enumerate(calls):
                self._next_id += 1
                owed[self._next_id] = position
                frames.append(wire.encode_request(self._next_id, method, args,
                                                  {}, trace=trace))
            deadline = time.monotonic() + self.rpc_timeout_s
            try:
                sock.settimeout(self.rpc_timeout_s)
                sock.sendall(b"".join(frames))
                while owed:
                    sock.settimeout(max(1e-6, deadline - time.monotonic()))
                    try:
                        data = sock.recv(_RECV_BYTES)
                    except socket.timeout:
                        raise RPCTimeoutError(self.endpoint,
                                              self.rpc_timeout_s) from None
                    if not data:
                        self._decoder.check_eof()
                        raise ConnectionLostError(self.endpoint,
                                                  "connection closed")
                    for payload in self._decoder.feed(data):
                        position = owed.pop(payload.get("id"), None)
                        if position is not None:
                            yield position, payload
            except RPCTimeoutError:
                raise  # the stream is intact: keep it, skip the late reply
            except MetadataError:  # framing fault, or the peer closed
                self._drop()
                raise
            except OSError as exc:
                self._drop()
                raise ConnectionLostError(self.endpoint, str(exc)) from exc

    # -- op plumbing ---------------------------------------------------------

    def _perform_many(self, ops: Sequence[Op]) -> List[Any]:
        """Pipeline ``ops`` on the connection and record each in
        ``metrics``.  Per op, in op order: its result (mutations as
        :class:`OpResult`), or the :class:`MetadataError` that failed it."""
        tracer = self.tracer
        calls = []
        spans = []  # per op, under an enabled tracer
        sent_at = self.now_us
        for position, op in enumerate(ops):
            trace_ctx = None
            if tracer.enabled:
                self._active_process = position
                span = tracer.begin(op.name, sent_at, category=CAT_OP,
                                    host=self.PROCESS_NAME)
                spans.append(span)
                trace_ctx = {"proc": self.PROCESS_NAME, "span": span.span_id}
            calls.append(("perform", (op.to_wire(),), trace_ctx))
        outcomes: List[Any] = [None] * len(ops)
        fault = None
        try:
            for position, payload in self._exchange(calls):
                try:
                    reply = wire.decode_result(payload)
                except MetadataError as exc:
                    outcomes[position] = exc
                    continue
                ctx = OpContext(ops[position].name)
                ctx.rpcs = reply.get("rpcs", 0)
                ctx.retries = reply.get("retries", 0)
                ctx.start = 0.0
                ctx.finish = reply.get("latency_us", 0.0)
                self.metrics.record(ctx)
                outcomes[position] = op_result(reply.get("result"), ctx)
                if spans:
                    self._active_process = position
                    now = self.now_us
                    charge_round_trip(tracer, now - sent_at, payload,
                                      self.endpoint)
                    tracer.end(spans[position], now)
        except MetadataError as exc:
            fault = exc
        for position, op in enumerate(ops):
            if outcomes[position] is None:
                outcomes[position] = fault
            if isinstance(outcomes[position], MetadataError):
                # No server-measured latency: record what the client waited.
                ctx = OpContext(op.name)
                ctx.start, ctx.finish = sent_at, self.now_us
                self.metrics.record_failure(ctx)
                if spans:
                    self._active_process = position
                    tracer.end(spans[position], ctx.finish, ok=False)
        return outcomes

    def perform(self, op: Op) -> Any:
        """Run one typed op; mutations come back as :class:`OpResult`."""
        (outcome,) = self._perform_many((op,))
        if isinstance(outcome, MetadataError):
            raise outcome
        return outcome

    def call(self, method: str, *args) -> Any:
        """One raw RPC to the endpoint (any role's wire port answers
        ``ping`` and the ``obs.*`` control methods)."""
        # Unpacking runs the exchange to its end, releasing the lock.
        ((_, payload),) = self._exchange([(method, args, None)])
        return wire.decode_result(payload)

    def ping(self) -> dict:
        """Round trip a no-op frame (connectivity check)."""
        return self.call("ping")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        with self._lock:
            self._drop()

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
