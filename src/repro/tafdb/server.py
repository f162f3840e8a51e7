"""Simulated TafDB shard server: RPC surface + CPU/disk cost accounting.

One :class:`DBServer` hosts several :class:`~repro.tafdb.shard.ShardState`
instances (Table 2 runs 18 DB servers; the default config spreads 72 shards
across them).  All storage logic lives in ``ShardState``; this class only
charges simulated costs and dispatches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.host import CostModel, Host
from repro.sim.network import Server, unary
from repro.sim.resources import Resource
from repro.tafdb.rows import AttrDelta, RowKey, attr_key
from repro.tafdb.shard import ShardState, WriteIntent

#: How often each server's compactor folds delta rows (§5.2.1).
COMPACTION_PERIOD_US = 5_000.0


class DBServer(Server):
    """RPC wrapper over the shards placed on one host."""

    def __init__(self, host: Host, shard_ids: List[int], costs: CostModel):
        super().__init__(host)
        self.costs = costs
        self.shards: Dict[int, ShardState] = {
            shard_id: ShardState(shard_id) for shard_id in shard_ids
        }
        self._dir_latches: Dict[tuple, "Resource"] = {}

    def shard(self, shard_id: int) -> ShardState:
        state = self.shards.get(shard_id)
        if state is None:
            raise KeyError(f"shard {shard_id} is not placed on {self.host.name}")
        return state

    # -- reads: one CPU charge each (see repro.sim.network.unary) -------------

    @unary
    def rpc_read(self, shard_id: int, key: RowKey):
        return self.costs.db_row_read_us, self.shard(shard_id).read, key

    @unary
    def rpc_scan_children(self, shard_id: int, pid: int,
                          limit: Optional[int] = None,
                          start_after: Optional[str] = None):
        page = self.shard(shard_id).scan_children(
            pid, limit=limit, start_after=start_after)
        # Charge one probe plus one row read per returned entry.
        return self.costs.db_row_read_us * max(1, len(page)), None, page

    @unary
    def rpc_has_children(self, shard_id: int, pid: int):
        return (self.costs.db_row_read_us,
                self.shard(shard_id).has_children, pid)

    @unary
    def rpc_read_dir_attrs(self, shard_id: int, dir_id: int):
        state = self.shard(shard_id)
        # dirstat folds pending deltas at read time: the §5.2.1 trade-off.
        return (self.costs.db_row_read_us * (1 + state.delta_count(dir_id)),
                state.read_attrs_folded, dir_id)

    # -- transactions -----------------------------------------------------------

    def _write_cost(self, intents: List[WriteIntent]) -> float:
        return (self.costs.db_txn_overhead_us
                + self.costs.db_row_write_us * len(intents))

    def rpc_prepare(self, shard_id: int, txn_id: str, intents: List[WriteIntent]):
        yield from self.runtime.work(
            self.host, self._write_cost(intents))
        self.shard(shard_id).prepare(txn_id, intents)
        return True

    def rpc_commit(self, shard_id: int, txn_id: str):
        yield from self.runtime.work(
            self.host, self.costs.db_txn_overhead_us)
        yield from self.runtime.fsync(
            self.host, self.costs.db_commit_sync_us)
        self.shard(shard_id).commit(txn_id)
        return True

    def rpc_abort(self, shard_id: int, txn_id: str):
        yield from self.runtime.work(
            self.host, self.costs.db_txn_overhead_us)
        self.shard(shard_id).abort(txn_id)
        return True

    def rpc_execute(self, shard_id: int, txn_id: str, intents: List[WriteIntent]):
        """Single-shard one-shot transaction: one RPC, one durable commit."""
        yield from self.runtime.work(
            self.host, self._write_cost(intents))
        self.shard(shard_id).prepare(txn_id, intents)
        yield from self.runtime.fsync(
            self.host, self.costs.db_commit_sync_us)
        self.shard(shard_id).commit(txn_id)
        return True

    def rpc_atomic_add(self, shard_id: int, dir_id: int, link_delta: int,
                       entry_delta: int, mtime: float = 0.0):
        """CFS-style single-shard atomic attribute increment.

        Never aborts; concurrent updates to the same directory serialise on
        a per-directory latch (the "serialized by a latch" behaviour the
        paper observes in LocoFS/Tectonic and InfiniFS's improvement over
        retry storms).
        """
        latch = self._dir_latches.get((shard_id, dir_id))
        if latch is None:
            latch = Resource(self.sim, 1)
            self._dir_latches[(shard_id, dir_id)] = latch
        req = latch.request()
        yield req
        tracer = self.sim.tracer
        if tracer.enabled:
            wait = self.sim._now - req._enqueue_time
            if wait > 0.0:
                tracer.charge("queue", wait, self.host.name,
                              resource="latch",
                              by=getattr(req, "_blame", None))
        try:
            yield from self.host.work(
                self.costs.db_row_read_us + self.costs.db_row_write_us)
            yield from self.host.fsync_cost(self.costs.db_commit_sync_us)
            delta = AttrDelta(link_delta=link_delta,
                              entry_delta=entry_delta, mtime=mtime)
            while not self.shard(shard_id).fold_direct(dir_id, delta):
                if self.shard(shard_id).read(attr_key(dir_id)) is None:
                    return False  # directory vanished
                yield self.sim.timeout(20.0)  # txn holds the row; retry
            return True
        finally:
            latch.release(req)

    # -- maintenance --------------------------------------------------------------

    def compactor_loop(self, period_us: float = COMPACTION_PERIOD_US):
        """Background process folding delta rows into primary attribute rows.

        Written against the runtime seam, so the simulator spawns it with
        ``sim.process`` and the live TafDB role drives the same loop on its
        event loop.  Runs until interrupted (cluster shutdown / failure
        injection) or, live, cancelled.
        """
        from repro.sim.core import Interrupt
        runtime = self.runtime
        try:
            while True:
                yield from runtime.sleep(period_us)
                if self.host.crashed:
                    continue
                tracer = self.sim.tracer
                round_folded = 0
                span = None
                for state in self.shards.values():
                    for dir_id in state.dirs_with_deltas:
                        folded = state.compact(dir_id)
                        if folded:
                            if span is None and tracer.enabled:
                                span = tracer.begin(
                                    "tafdb.compact", self.sim.now,
                                    category="maintenance",
                                    host=self.host.name)
                            round_folded += folded
                            yield from runtime.work(
                                self.host,
                                self.costs.db_row_write_us * folded)
                if span is not None:
                    span.annotate(folded=round_folded)
                    tracer.end(span, self.sim.now)
        except Interrupt:
            return

    # -- stats ----------------------------------------------------------------------

    @property
    def total_aborts(self) -> int:
        return sum(s.aborts for s in self.shards.values())

    @property
    def total_commits(self) -> int:
        return sum(s.commits for s in self.shards.values())

    @property
    def abort_reasons(self) -> Dict[str, int]:
        """Per-reason abort counts aggregated across this server's shards."""
        out: Dict[str, int] = {}
        for state in self.shards.values():
            for reason, count in state.abort_reasons.items():
                out[reason] = out.get(reason, 0) + count
        return out

    @property
    def total_rows(self) -> int:
        return sum(s.row_count for s in self.shards.values())
