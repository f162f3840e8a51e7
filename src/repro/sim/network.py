"""RTT-charged request/response RPC and the server dispatch base class.

An RPC charges one-way latency each direction; the handler body runs inline
in the calling process (request/response semantics) but charges the *target
host's* CPU via ``host.work``, so server-side queueing delays are modelled
faithfully.  Asynchronous messaging (Raft) uses :class:`repro.sim.resources.Store`
mailboxes instead.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.errors import ServiceUnavailableError
from repro.sim.core import Simulator, Timeout
from repro.sim.host import Host
from repro.sim.stats import OpContext


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

    def transit(self):
        """One-way message flight."""
        self.message_count += 1
        if self.jitter_frac <= 0:
            # Jitter-free fast path: fixed latency, no RNG draw.
            delay = self.one_way_us
        else:
            delay = self._sample_one_way()
        yield Timeout(self.sim, delay)

    def rpc(self, server: "Server", method: str, *args,
            ctx: Optional[OpContext] = None, **kwargs):
        """Request/response round trip to ``server``.

        Counts one RPC round on the network and on ``ctx`` when provided —
        the counter behind the Table 1 RTT comparison.  Under an enabled
        tracer each round trip opens an ``rpc``-category span (parented to
        the operation's root span when ``ctx`` carries one) covering both
        flights, and the handler body nests inside it.
        """
        self.rpc_count += 1
        if ctx is not None:
            ctx.rpcs += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin(
                "rpc:" + method, self.sim.now, category="rpc",
                parent=ctx.trace if ctx is not None else None,
                host=server.host.name)
        else:
            span = None
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            started_us = self.sim._now
            telemetry.counter("rpc.count", server.host.name).add(started_us)
            telemetry.gauge("rpc.in_flight").adjust(started_us, 1.0)
        else:
            started_us = None
        if tracer.enabled:
            sent_us = self.sim._now
            yield from self.transit()
            tracer.charge("wire", self.sim._now - sent_us,
                          server.host.name)
        else:
            yield from self.transit()
        ok = True
        try:
            result = yield from server.dispatch(method, args, kwargs, span)
        except BaseException:
            ok = False
            raise
        finally:
            # The response (or error) still has to fly back.
            if tracer.enabled:
                sent_us = self.sim._now
                yield from self.transit()
                tracer.charge("wire", self.sim._now - sent_us,
                              server.host.name)
            else:
                yield from self.transit()
            if span is not None:
                tracer.end(span, self.sim.now, ok=ok)
            if started_us is not None and telemetry.enabled:
                now = self.sim._now
                telemetry.gauge("rpc.in_flight").adjust(now, -1.0)
                telemetry.histogram("rpc.latency_us",
                                    server.host.name).record(
                    now, now - started_us)
        return result


class Server:
    """Base class for services addressed by RPC.

    Subclasses implement handler generators named ``rpc_<method>``.  Handlers
    charge CPU on ``self.host`` explicitly — through ``self.runtime`` — at
    the points where real work happens.

    The runtime is resolved from the host's ``sim`` object: a simulated
    :class:`~repro.sim.host.Host` answers with the kernel-backed
    :class:`~repro.runtime.base.SimRuntime`, while the live facade behind
    ``mantle-serve`` hands back the process's ``AsyncioRuntime`` — the same
    handler generators serve both worlds (see ``docs/runtime.md``).
    """

    def __init__(self, host: Host):
        self.host = host
        self.runtime = host.sim.runtime

    @property
    def sim(self) -> Simulator:
        return self.host.sim

    def dispatch(self, method: str, args: tuple, kwargs: dict, span=None):
        if self.host.crashed:
            raise ServiceUnavailableError(self.host.name)
        handler = getattr(self, "rpc_" + method, None)
        if handler is None:
            raise AttributeError(f"{type(self).__name__} has no RPC {method!r}")
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


class LoadBalancer:
    """Round-robin picker over a set of peer servers (the stateless proxy
    fleet, or DB shard replicas)."""

    def __init__(self, servers):
        self._servers = list(servers)
        if not self._servers:
            raise ValueError("load balancer needs at least one server")
        self._next = 0

    def pick(self) -> Any:
        server = self._servers[self._next % len(self._servers)]
        self._next += 1
        return server

    def all(self):
        return list(self._servers)
