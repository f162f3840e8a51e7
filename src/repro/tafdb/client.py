"""Client-side TafDB access: routing, single-shard fast path, 2PC.

A :class:`TafDBClient` lives inside a proxy (or an IndexNode applying
synchronized updates).  It routes row keys to shard servers through the
partitioner and executes transactions:

* all intents on one shard → a single ``execute`` RPC (one round trip);
* intents spanning shards → two-phase commit: parallel ``prepare`` RPCs,
  then parallel ``commit`` (or ``abort``) RPCs.

Aborts surface as :class:`~repro.errors.TransactionAbort`; retry policy
belongs to the operation layer, but :meth:`backoff_us` provides the shared
exponential-backoff schedule and :data:`MAX_RETRIES` the shared limit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TransactionAbort
from repro.sim.core import Simulator
from repro.sim.host import CostModel
from repro.sim.network import Network
from repro.sim.stats import OpContext
from repro.tafdb.partition import Partitioner
from repro.tafdb.rows import RowKey
from repro.tafdb.server import DBServer
from repro.tafdb.shard import WriteIntent

#: Retries after which an operation gives up on a contended transaction or
#: rename lock and raises.  Every system's retry loops share this limit,
#: except InfiniFS's rename transaction, which restarts whole on any parent
#: conflict and has its own (``infinifs._RENAME_TXN_RETRIES``).
MAX_RETRIES = 64


class TafDBClient:
    """Routing + transaction coordination for one client (proxy) endpoint.

    ``client_id`` must be unique among the clients of one TafDB deployment
    (it prefixes transaction ids and delta timestamps); the deployment's
    ``client()`` hands them out.  The read methods return the runtime's RPC
    generator itself, to be consumed with ``yield from``.
    """

    def __init__(self, sim: Simulator, network: Network,
                 partitioner: Partitioner, servers: Sequence[DBServer],
                 costs: CostModel, client_id: int, runtime=None):
        if len(servers) != partitioner.num_servers:
            raise ValueError("server list does not match partitioner")
        self.sim = sim
        self.network = network
        if runtime is None:
            from repro.runtime.base import default_runtime
            runtime = default_runtime(sim, network)
        self.runtime = runtime
        self.partitioner = partitioner
        self.servers = list(servers)
        #: shard id -> the server holding it.
        self._shard_servers = [
            self.servers[partitioner.server_of_shard(shard_id)]
            for shard_id in range(partitioner.num_shards)]
        self.costs = costs
        self.client_id = client_id
        self._txn_seq = 0
        self._ts_seq = 0
        self.txn_attempts = 0
        self.txn_aborts = 0

    # -- identifiers ---------------------------------------------------------

    def next_txn_id(self) -> str:
        self._txn_seq += 1
        return f"txn-{self.client_id}-{self._txn_seq}"

    def next_delta_ts(self) -> int:
        """Globally unique non-zero delta timestamp (client id + sequence)."""
        self._ts_seq += 1
        return (self.client_id << 24) | self._ts_seq

    def backoff_us(self, attempt: int) -> float:
        """Exponential backoff schedule for transaction retries.

        Called by the operation layer once per retry, which makes it the
        one central place to count retries in the telemetry timeline.
        """
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.counter("tafdb.retries").add(self.sim._now)
        delay = self.costs.backoff_base_us * (2 ** min(attempt, 10))
        return min(delay, self.costs.backoff_max_us)

    def _count_txn(self, outcome: str) -> None:
        """Per-window transaction outcome counters: ``tafdb.commits`` or
        ``tafdb.aborts.<cause>`` (cause as reported by the shard: "lock
        held", "exists", "missing", "version")."""
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.counter(outcome).add(self.sim._now)

    # -- routing ----------------------------------------------------------------

    def shard_of(self, pid: int) -> int:
        return self.partitioner.shard_of(pid)

    def server_for(self, pid: int) -> Tuple[int, DBServer]:
        shard_id = self.partitioner.shard_of(pid)
        return shard_id, self._shard_servers[shard_id]

    # -- reads ---------------------------------------------------------------------

    def read(self, key: RowKey, ctx: Optional[OpContext] = None):
        shard_id, server = self.server_for(key.pid)
        return self.runtime.rpc(server, "read", shard_id, key, ctx=ctx)

    def scan_children(self, pid: int, limit: Optional[int] = None,
                      start_after: Optional[str] = None,
                      ctx: Optional[OpContext] = None):
        shard_id, server = self.server_for(pid)
        return self.runtime.rpc(
            server, "scan_children", shard_id, pid, limit, start_after, ctx=ctx)

    def has_children(self, dir_id: int, ctx: Optional[OpContext] = None):
        shard_id, server = self.server_for(dir_id)
        return self.runtime.rpc(
            server, "has_children", shard_id, dir_id, ctx=ctx)

    def read_dir_attrs(self, dir_id: int, ctx: Optional[OpContext] = None):
        shard_id, server = self.server_for(dir_id)
        return self.runtime.rpc(
            server, "read_dir_attrs", shard_id, dir_id, ctx=ctx)

    def atomic_add(self, dir_id: int, link_delta: int, entry_delta: int,
                   ctx: Optional[OpContext] = None):
        """CFS-style atomic parent-attribute increment (never aborts)."""
        shard_id, server = self.server_for(dir_id)
        ok = yield from self.runtime.rpc(
            server, "atomic_add", shard_id, dir_id, link_delta, entry_delta,
            self.runtime.now, ctx=ctx)
        return ok

    # -- transactions ------------------------------------------------------------------

    def _fanout_leg(self, verb: str, parent, gen, label=None):
        """Wrap one parallel fan-out RPC so the critical path can see it.

        2PC legs run in spawned processes, so their spans are dynamic
        roots — outside the waiting op's tree, which would leave the
        fan-out wait as unexplained idle on the critical path.  The
        wrapper span records a ``join_to`` edge back to the fan-out wait
        span; :mod:`repro.sim.critpath` follows it and folds the *gating*
        leg (the one the AllOf actually waited on) into the op's path,
        with the overlapped legs surfacing as off-path cost.  The cost
        profiler ignores the edge — its per-tree conservation needs the
        legs to stay roots.

        ``label`` is the owning op's ``(op, tenant)`` identity, captured
        by the caller *in the client's process* (here the generator body
        already runs in the spawned leg process, where the op root is not
        on the stack); ``Tracer.current_op_label`` reads it back so
        resource occupancy inside a leg blames the op, not the leg.
        """
        tracer = self.sim.tracer
        span = tracer.begin("fanout:" + verb, self.sim.now,
                            category="txn", parent=parent)
        span.annotate(join_to=parent.span_id)
        if label is not None:
            span.annotate(op_label=label)
        try:
            result = yield from gen
        except BaseException:
            tracer.end(span, self.sim.now, ok=False)
            raise
        tracer.end(span, self.sim.now)
        return result

    def execute_txn(self, intents: Sequence[WriteIntent],
                    ctx: Optional[OpContext] = None):
        """Run one transaction; raises TransactionAbort on conflict.

        Single-shard transactions commit in one RPC; multi-shard ones use
        2PC with parallel prepares and commits, exactly the coordination the
        paper's Figure 2 step (4a)/(4b) shows.
        """
        if not intents:
            return
        by_shard: Dict[int, List[WriteIntent]] = {}
        for intent in intents:
            by_shard.setdefault(self.shard_of(intent.key.pid), []).append(intent)
        txn_id = self.next_txn_id()
        self.txn_attempts += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin(
                "tafdb.txn", self.sim.now, category="txn",
                parent=ctx.trace if ctx is not None else None)
            span.annotate(txn_id=txn_id, shards=len(by_shard),
                          intents=len(intents),
                          mode="1pc" if len(by_shard) == 1 else "2pc")
        else:
            span = None
        if len(by_shard) == 1:
            shard_id, shard_intents = next(iter(by_shard.items()))
            server = self._shard_servers[shard_id]
            try:
                yield from self.runtime.rpc(
                    server, "execute", shard_id, txn_id, shard_intents, ctx=ctx)
            except TransactionAbort as exc:
                self.txn_aborts += 1
                self._count_txn("tafdb.aborts." + exc.reason)
                if span is not None:
                    span.annotate(abort_reason=exc.reason)
                    tracer.end(span, self.sim.now, ok=False)
                raise
            self._count_txn("tafdb.commits")
            if span is not None:
                tracer.end(span, self.sim.now)
            return
        try:
            yield from self._two_phase_commit(txn_id, by_shard, ctx, span)
        except TransactionAbort as exc:
            self._count_txn("tafdb.aborts." + exc.reason)
            if span is not None:
                span.annotate(abort_reason=exc.reason)
                tracer.end(span, self.sim.now, ok=False)
            raise
        self._count_txn("tafdb.commits")
        if span is not None:
            tracer.end(span, self.sim.now)

    def _two_phase_commit(self, txn_id: str,
                          by_shard: Dict[int, List[WriteIntent]],
                          ctx: Optional[OpContext], span=None):
        tracer = self.sim.tracer
        shard_ids = sorted(by_shard)
        if span is not None:
            pspan = tracer.begin("tafdb.prepare", self.sim.now,
                                 category="txn", parent=span)
        else:
            pspan = None
        legs = [self._prepare_one(txn_id, sid, by_shard[sid], ctx)
                for sid in shard_ids]
        if pspan is not None:
            label = tracer.current_op_label()
            legs = [self._fanout_leg("prepare", pspan, leg, label)
                    for leg in legs]
        prepares = [self._guarded(leg) for leg in legs]
        outcomes = yield from self.runtime.gather(prepares)
        failures = [err for ok, err in outcomes if not ok]
        if pspan is not None:
            tracer.end(pspan, self.sim.now, ok=not failures)
        if failures:
            prepared = [sid for sid, (ok, _) in zip(shard_ids, outcomes) if ok]
            yield from self._finish(txn_id, prepared, "abort", ctx, span)
            self.txn_aborts += 1
            raise failures[0]
        yield from self._finish(txn_id, shard_ids, "commit", ctx, span)

    def _prepare_one(self, txn_id: str, shard_id: int,
                     intents: List[WriteIntent], ctx: Optional[OpContext]):
        server = self._shard_servers[shard_id]
        yield from self.runtime.rpc(
            server, "prepare", shard_id, txn_id, intents, ctx=ctx)

    def _finish(self, txn_id: str, shard_ids: List[int], verb: str,
                ctx: Optional[OpContext], span=None):
        if not shard_ids:
            return
        tracer = self.sim.tracer
        if span is not None:
            fspan = tracer.begin("tafdb." + verb, self.sim.now,
                                 category="txn", parent=span)
        else:
            fspan = None
        rounds = []
        label = tracer.current_op_label() if fspan is not None else None
        for shard_id in shard_ids:
            server = self._shard_servers[shard_id]
            leg = self.runtime.rpc(server, verb, shard_id, txn_id, ctx=ctx)
            if fspan is not None:
                leg = self._fanout_leg(verb, fspan, leg, label)
            rounds.append(self._swallow(leg))
        yield from self.runtime.gather(rounds)
        if fspan is not None:
            tracer.end(fspan, self.sim.now)

    @staticmethod
    def _guarded(generator):
        """Convert exceptions into (ok, error) results so AllOf never fails
        mid-flight with sibling prepares still holding locks."""
        def runner():
            try:
                yield from generator
                return (True, None)
            except TransactionAbort as exc:
                return (False, exc)
        return runner()

    @staticmethod
    def _swallow(generator):
        def runner():
            try:
                yield from generator
            except TransactionAbort:
                pass
        return runner()
