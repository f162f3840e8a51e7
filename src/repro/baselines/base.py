"""The system-agnostic metadata-service interface.

Every system under evaluation (Mantle, Tectonic, InfiniFS, LocoFS) exposes
the same seven mdtest operations plus bulk-loading hooks, so the workload
generators and the benchmark harness never special-case a system.

Operation methods are *generators* running inside the discrete-event
simulation; ``perform`` is the uniform typed entry point: it dispatches a
:class:`repro.ops.Op` through the per-system handler table, stamps the
:class:`~repro.sim.stats.OpContext`, records the outcome into a
:class:`~repro.sim.stats.MetricSet` when given one, and (under an enabled
tracer) opens the operation's root span.  A system without a handler for
an op raises ``NotImplementedError`` naming both.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Optional

from repro.errors import MetadataError
from repro.ops import Op
from repro.sim.core import Simulator
from repro.sim.host import CostModel
from repro.sim.network import Network
from repro.sim.stats import MetricSet, OpContext
from repro.sim.telemetry import OP_LATENCY_DIGEST_PREFIX

#: Operations followed by a data-service access in end-to-end runs (§3).
_DATA_ACCESS_OPS = frozenset(("create", "delete", "objstat"))


class MetadataSystem:
    """Abstract base; subclasses implement ``op_<name>`` generators (or
    override :meth:`_handler_for` to route ops elsewhere, as Mantle's
    proxy routing does)."""

    name = "abstract"

    #: Tenant identity stamped on every op's root span (interference
    #: blame groups victims/culprits by it).  ``None`` = single-tenant;
    #: multi-namespace deployments set it to the namespace name.
    tenant: Optional[str] = None

    #: The deployment's one cost model; every system sets it when built.
    costs: CostModel

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        # Execution seam: domain code routes RPC/time/host-work through this
        # object.  For a Simulator this is a SimRuntime (bit-identical to
        # direct kernel calls); the live facade substitutes an AsyncioRuntime
        # carried on the same attribute (see repro/runtime/).
        from repro.runtime.base import default_runtime
        self.runtime = default_runtime(sim, network)
        self._uuid_counter = itertools.count(1)
        self.data_access_enabled = False

    # -- lifecycle ------------------------------------------------------------

    def startup(self) -> None:
        """Run elections / warmup; must be called before submitting ops."""

    def shutdown(self) -> None:
        """Stop background processes so the event queue can drain."""

    # -- bulk loading (pre-population, no simulated cost) -----------------------

    def bulk_load(self, dirs: Iterable[str] = (), objects: Iterable[str] = (),
                  size: int = 0) -> Optional[int]:
        """Install ``dirs`` then ``objects``; returns the last entry's id."""
        raise NotImplementedError

    def bulk_mkdir(self, path: str) -> int:
        return self.bulk_load((path,))

    def bulk_create(self, path: str, size: int = 0) -> int:
        return self.bulk_load((), (path,), size)

    # -- uniform submission -----------------------------------------------------

    def next_uuid(self) -> str:
        """Client-generated request UUID (idempotent retry support, §5.3)."""
        return f"{self.name}-req-{next(self._uuid_counter)}"

    def _handler_for(self, op_name: str) -> Callable:
        """Resolve (and cache) the ``op_<name>`` handler for one op type."""
        table: Optional[Dict[str, Callable]] = getattr(
            self, "_handler_table", None)
        if table is None:
            table = self._handler_table = {}
        handler = table.get(op_name)
        if handler is None:
            handler = getattr(self, "op_" + op_name, None)
            if handler is None:
                raise NotImplementedError(
                    f"{self.name} does not implement {op_name!r}")
            table[op_name] = handler
        return handler

    def perform(self, op: Op, ctx: Optional[OpContext] = None,
                metrics: Optional[MetricSet] = None):
        """Run one typed metadata operation end to end (generator).

        ``ctx`` gets its start time here and everything else about the
        outcome in :meth:`_finish`, on success and on failure alike; the
        op is recorded into ``metrics`` when given.  Optionally
        appends the data-service access the paper's Figure 10b end-to-end
        runs include, and — under an enabled tracer — opens the
        operation's root span and threads it through ``ctx`` so phases,
        RPCs and transactions nest beneath it.
        """
        handler = self._handler_for(op.name)
        if ctx is None:
            ctx = OpContext(op.name)
        sim = self.sim
        tracer = sim.tracer
        if tracer.enabled:
            span = tracer.begin(op.name, sim.now, category="op",
                                host=self.name)
            if self.tenant is not None:
                span.annotate(tenant=self.tenant)
            ctx.trace = span
            ctx.tracer = tracer
        else:
            span = None
        ctx.start = sim.now
        try:
            result = yield from handler(*op.handler_args(), ctx=ctx)
            if self.data_access_enabled and op.name in _DATA_ACCESS_OPS:
                yield from self.data_access(ctx)
        except BaseException as exc:
            self._finish(op.name, ctx, tracer, span, metrics, exc)
            raise
        self._finish(op.name, ctx, tracer, span, metrics, None)
        return result

    def _finish(self, op_name: str, ctx: OpContext, tracer, span,
                metrics: Optional[MetricSet],
                exc: Optional[BaseException]) -> None:
        """The one place an op's outcome is recorded: stamp
        ``ctx.finish``, close the root span, feed the latency digest and
        record into ``metrics`` — as completed when ``exc`` is None, as
        failed when it is a :class:`~repro.errors.MetadataError` (any
        other exception is not an op outcome and is not recorded)."""
        sim = self.sim
        now = ctx.finish = sim.now
        if span is not None:
            tracer.end(span, now, ok=exc is None)
        telemetry = sim.telemetry
        if telemetry.enabled:
            telemetry.digest(OP_LATENCY_DIGEST_PREFIX + op_name).record(
                now, now - ctx.start)
        if metrics is not None:
            if exc is None:
                metrics.record(ctx)
            elif isinstance(exc, MetadataError):
                metrics.record_failure(ctx)

    def data_access(self, ctx: OpContext):
        """One small-object data-service access: a single RPC plus tens of
        microseconds of SSD device time (§3)."""
        costs = self.costs
        yield self.sim.timeout(2 * costs.net_one_way_us
                               + costs.data_io_small_us)


class IdAllocator:
    """Monotonic inode-id allocator shared by bulk loading and proxies.

    Real deployments hand out per-proxy id ranges; a shared counter has the
    same correctness properties and no simulated cost, so we keep it simple.
    """

    def __init__(self, start: int = 2):
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)
