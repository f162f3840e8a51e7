"""IndexNode RPC surface: lookups, rename preparation, mutation proposals.

One :class:`IndexNodeService` wraps each Raft replica.  Lookups are served
by any replica (followers and learners run the §5.1.3 commitIndex barrier
first); mutations and rename coordination go to the leader, which proposes
commands through Raft and awaits the applied result.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.errors import (
    AlreadyExistsError,
    NoSuchPathError,
    RenameLockConflict,
    RenameLoopError,
)
from repro.indexnode.state import IndexNodeState, LookupOutcome
from repro.paths import normalize
from repro.raft.node import NotLeaderError, RaftNode
from repro.sim.core import Interrupt
from repro.sim.host import CostModel, Host
from repro.sim.network import Server
from repro.types import Permission


@dataclasses.dataclass(frozen=True)
class RenamePrep:
    """What rename preparation (Figure 9 steps 1-7) hands back to the proxy."""

    src_pid: int
    src_name: str
    src_id: int
    src_path: str
    dst_parent_id: int
    dst_name: str
    permission: Permission  # the source directory's own mask
    loop_probes: int


class IndexNodeService(Server):
    """RPC endpoint for one IndexNode replica."""

    def __init__(self, host: Host, node: RaftNode, state: IndexNodeState,
                 costs: CostModel, purge_period_us: float = 200.0,
                 start_purger: bool = True):
        super().__init__(host)
        self.node = node
        self.state = state
        self.costs = costs
        self.purge_period_us = purge_period_us
        self.lookups_served = 0
        self._purger = None
        if start_purger:
            self._purger = host.sim.process(
                self.purge_loop(), name=f"invalidator-{host.name}")

    # -- background invalidation (§5.1.2) ---------------------------------------

    def purge_loop(self):
        """Background process draining the RemovalList every period.

        Written against the runtime seam like ``DBServer.compactor_loop``:
        the simulator spawns it here, a live IndexNode role drives the same
        loop on its event loop.  Runs until interrupted or, live, cancelled.
        """
        runtime = self.runtime
        try:
            while True:
                yield from runtime.sleep(self.purge_period_us)
                if self.host.crashed:
                    continue
                telemetry = self.sim.telemetry
                if telemetry.enabled:
                    # Backlog the invalidator is about to drain: rename
                    # pressure shows up here before cache hit-rate drops.
                    telemetry.gauge("index.invalidator_queue",
                                    self.host.name).set(
                        self.sim._now,
                        len(self.state.invalidator.removal_list))
                removed = self.state.invalidator.purge_pending()
                if removed:
                    tracer = self.sim.tracer
                    if tracer.enabled:
                        span = tracer.begin("index.purge", self.sim.now,
                                            category="maintenance",
                                            host=self.host.name)
                        span.annotate(removed=removed)
                    else:
                        span = None
                    # Range-scan + hash removals are cheap per entry.
                    yield from runtime.work(self.host, 0.5 * removed)
                    if span is not None:
                        tracer.end(span, self.sim.now)
        except Interrupt:
            return

    def stop(self) -> None:
        if self._purger is not None:
            self._purger.interrupt("stop")
            self._purger = None

    # -- replicated proposals with blocked-on attribution -----------------------

    def _propose_attributed(self, command):
        """Propose through Raft, decomposing the commit wait for tracing.

        The proposing handler blocks from ``propose()`` until its entry is
        applied; with tracing on, the node's commit-timeline stamps split
        that wall time into the costs that gated it:

        * ``raft.queue``  (queue) — batch-window wait until the leader's
          flush started,
        * ``raft.flush``  (fsync) — the leader's log fsync (disk queueing
          included),
        * ``raft.follower_flush`` (fsync) / ``raft.follower_apply`` (cpu)
          — the gating follower's own fsync and apply, piggybacked on its
          AppendReply (charged to the follower's host),
        * ``raft.replicate`` (wire) — the remainder of the post-flush
          wait: the replication round trips themselves, which from the
          waiting handler's perspective are network-shaped.

        Stamps can be missing (sampling raced a leadership change); the
        whole wait is then attributed as a single ``raft.commit`` edge.
        Pure bookkeeping either way: with tracing off this is exactly
        ``yield self.node.propose(command)``.  Under the live runtime the
        decomposition comes from ``SoloRaft.commit``'s wall-clock spans
        instead, so this path defers to ``runtime.propose``.
        """
        tracer = self.sim.tracer
        if not tracer.enabled or self.runtime.kind != "sim":
            result = yield from self.runtime.propose(self.node, command)
            return result
        start = self.sim.now
        waiter = self.node.propose(command)
        try:
            result = yield waiter
        finally:
            stats = self.node.pop_commit_stats(waiter)
        now = self.sim.now
        total = now - start
        host = self.node.host.name
        if stats is not None and "flush_end" in stats:
            queued = min(total, max(0.0, stats["flush_start"] - start))
            flushed = min(total - queued,
                          max(0.0, stats["flush_end"] - stats["flush_start"]))
            # Occupant tag for the batch-window wait: the op whose batch
            # held the log fsync when we proposed; with no flush in
            # progress the wait is the batching config itself.
            tracer.charge_blocked(
                "raft.queue", "queue", queued, host, resource="raft",
                by=stats.get("queued_behind") or ("(batch-window)", None))
            tracer.charge_blocked("raft.flush", "fsync", flushed, host)
            repl = total - queued - flushed
            follower_host = stats.get("follower_host", host)
            f_flush = min(repl, max(0.0, stats.get("follower_flush_us", 0.0)))
            f_apply = min(repl - f_flush,
                          max(0.0, stats.get("follower_apply_us", 0.0)))
            if f_flush > 0.0:
                tracer.charge_blocked("raft.follower_flush", "fsync",
                                      f_flush, follower_host)
            if f_apply > 0.0:
                tracer.charge_blocked("raft.follower_apply", "cpu",
                                      f_apply, follower_host)
            tracer.charge_blocked("raft.replicate", "wire",
                                  repl - f_flush - f_apply, host)
        else:
            tracer.charge_blocked("raft.commit", "wire", total, host)
        return result

    # -- lookups (Figure 7) ---------------------------------------------------------

    def _charge_lookup(self, outcome: LookupOutcome):
        cost = (outcome.index_probes * self.costs.index_probe_us
                + outcome.cache_probes * self.costs.cache_hit_us
                + outcome.depth * self.costs.permission_check_us)
        yield from self.runtime.work(self.host, cost)

    def rpc_lookup(self, path: str, want: str = "parent"):
        """Single-RPC path resolution; serves on leader or replica."""
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin("index.lookup", self.sim.now,
                                category="index", host=self.host.name)
        else:
            span = None
        yield from self.runtime.work(
            self.host, self.costs.index_rpc_overhead_us)
        if not self.node.is_leader:
            # §5.1.3: commitIndex barrier keeps replica reads consistent.
            # The wait is dominated by the commitIndex round trip to the
            # leader (shared across concurrent readers), so charge it as a
            # wire-kind blocked edge — otherwise replica reads show the
            # barrier as unexplained idle on the critical path.
            barrier_start = self.sim.now
            yield from self.node.read_barrier()
            if span is not None:
                tracer.charge_blocked("raft.read_barrier", "wire",
                                      self.sim.now - barrier_start,
                                      self.host.name)
        outcome = self.state.lookup(path, want)
        yield from self._charge_lookup(outcome)
        self.lookups_served += 1
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            now = self.sim._now
            host = self.host.name
            if outcome.bypassed_cache:
                telemetry.counter("index.cache_bypass", host).add(now)
            elif outcome.cache_hit:
                telemetry.counter("index.cache_hits", host).add(now)
            else:
                telemetry.counter("index.cache_misses", host).add(now)
            if outcome.index_probes:
                telemetry.counter("index.probes", host).add(
                    now, outcome.index_probes)
        if span is not None:
            span.annotate(cache_hit=outcome.cache_hit,
                          bypassed_cache=outcome.bypassed_cache,
                          index_probes=outcome.index_probes,
                          cache_probes=outcome.cache_probes,
                          depth=outcome.depth)
            tracer.end(span, self.sim.now)
        return outcome

    # -- rename coordination (Figure 9, §5.2.2) ------------------------------------------

    def rpc_rename_prepare(self, src_path: str, dst_path: str, owner: str):
        """Steps 1-7 of the cross-directory rename workflow: resolve both
        paths, lock the source via a Raft-replicated lock bit, and run loop
        detection locally — all in one RPC from the proxy.

        ``owner`` is the client-generated rename UUID; a retried request
        recognises its own lock (§5.3 idempotence).
        """
        yield from self.runtime.work(
            self.host, self.costs.index_rpc_overhead_us)
        if not self.node.is_leader:
            raise NotLeaderError(self.node.leader_hint)
        state = self.state
        src_parent = state.lookup(src_path, want="parent")
        yield from self._charge_lookup(src_parent)
        src_parent.permission.check_path(src_path, write=True)
        dst_parent = state.lookup(dst_path, want="parent")
        yield from self._charge_lookup(dst_parent)
        dst_parent.permission.check_path(dst_path, write=True)
        src_full = normalize(src_path)
        if (dst_parent.target_id, dst_parent.final_name) == (
                src_parent.target_id, src_parent.final_name):
            raise RenameLoopError(src_full, dst_path)  # onto itself
        src_meta = state.table.get(src_parent.target_id, src_parent.final_name)
        if src_meta is None:
            raise NoSuchPathError(src_path, src_parent.final_name)

        # Loop detection before locking: moving src under its own subtree.
        chain = state.table.ancestor_chain(dst_parent.target_id)
        yield from self.runtime.work(
            self.host, len(chain) * self.costs.index_probe_us)
        state.table.check_rename_loop(src_meta.id, dst_parent.target_id)

        # Step 4+5: RemovalList insert + lock bit, replicated through Raft.
        result = yield from self._propose_attributed(
            ("rename_lock", src_parent.target_id, src_parent.final_name,
             owner, src_full))
        status = result[0]
        if status == "missing":
            raise NoSuchPathError(src_path)
        if status == "locked":
            raise RenameLockConflict(src_full)

        # Step 6: check lock bits from the LCA down to the destination.
        src_chain = set(state.table.ancestor_chain(src_meta.id))
        lca = next(d for d in chain if d in src_chain)
        locked = state.table.locked_on_chain(dst_parent.target_id, lca)
        locked = [d for d in locked if d != src_meta.id]
        yield from self.runtime.work(
            self.host, max(1, len(chain)) * self.costs.index_probe_us)
        if locked:
            # Conflict with another in-flight rename: release and retry.
            yield from self._propose_attributed(
                ("rename_abort", src_parent.target_id,
                 src_parent.final_name, owner, src_full))
            raise RenameLockConflict(state.table.path_of(locked[0]))

        return RenamePrep(
            src_pid=src_parent.target_id,
            src_name=src_parent.final_name,
            src_id=src_meta.id,
            src_path=src_full,
            dst_parent_id=dst_parent.target_id,
            dst_name=dst_parent.final_name,
            permission=src_meta.permission,
            loop_probes=len(chain),
        )

    # -- replicated mutations ------------------------------------------------------------

    def rpc_mutate(self, command: Tuple):
        """Propose one state-machine command and await its applied result."""
        yield from self.runtime.work(
            self.host, self.costs.index_rpc_overhead_us)
        if not self.node.is_leader:
            raise NotLeaderError(self.node.leader_hint)
        result = yield from self._propose_attributed(command)
        return self._translate(command, result)

    @staticmethod
    def _translate(command: Tuple, result: Tuple):
        status = result[0]
        if status == "ok":
            return result[1]
        detail = f"{command[0]}:{command[1:]}"
        if status == "exists":
            raise AlreadyExistsError(detail)
        if status == "missing":
            raise NoSuchPathError(detail)
        if status == "locked":
            raise RenameLockConflict(detail)
        raise RuntimeError(f"indexnode apply failed: {result!r}")
