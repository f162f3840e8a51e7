"""One Raft participant (voter or learner) and its event loop."""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceUnavailableError
from repro.raft.log import RaftLog
from repro.raft.messages import (
    AppendEntries,
    AppendReply,
    InstallSnapshot,
    RequestVote,
    SnapshotReply,
    VoteReply,
)
from repro.sim.core import AnyOf, Interrupt
from repro.sim.host import Host
from repro.sim.resources import Store


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"
    LEARNER = "learner"


class NotLeaderError(ServiceUnavailableError):
    """Proposal sent to a non-leader; carries a hint to the real leader."""

    def __init__(self, leader_hint: Optional[int] = None):
        super().__init__("raft leader")
        self.leader_hint = leader_hint


@dataclasses.dataclass
class RaftConfig:
    """Timing and batching knobs (simulated microseconds)."""

    heartbeat_us: float = 10_000.0
    election_timeout_min_us: float = 50_000.0
    election_timeout_max_us: float = 100_000.0
    #: §5.2.3 log batching: aggregate proposals for one fsync.
    batching_enabled: bool = True
    batch_window_us: float = 100.0
    max_batch: int = 64
    #: Max entries shipped per AppendEntries message.
    replication_limit: int = 64
    #: Take a state-machine snapshot and compact the log once this many
    #: entries have been applied since the last snapshot (0 = disabled).
    #: Requires the state machine to implement snapshot()/restore().
    snapshot_threshold: int = 0


class _Poke:
    """Mailbox sentinel used by propose() to wake the node's event loop."""

    __slots__ = ()


_POKE = _Poke()

#: No-op command a fresh leader replicates to commit prior-term entries
#: (Raft §5.4.2: a leader may only count replicas for entries of its own
#: term, so it commits one immediately on election).  Skipped by state
#: machines.
NOOP_COMMAND = ("__raft_noop__",)


class RaftNode:
    """A single Raft replica driving a deterministic state machine.

    ``state_machine`` is any object with ``apply(command) -> result``; every
    replica applies committed entries in log order, so replicas that build
    their state purely from applied commands stay identical (§4).
    """

    def __init__(self, node_id: int, host: Host, group: "RaftGroup",
                 state_machine: Any, config: Optional[RaftConfig] = None,
                 is_learner: bool = False, seed: int = 0):
        self.id = node_id
        self.host = host
        self.sim = host.sim
        self.group = group
        self.state_machine = state_machine
        self.config = config or RaftConfig()
        self.is_learner = is_learner
        self.role = Role.LEARNER if is_learner else Role.FOLLOWER
        self.current_term = 0
        self.voted_for: Optional[int] = None
        self.leader_hint: Optional[int] = None
        self.log = RaftLog()
        self.commit_index = 0
        self.last_applied = 0
        self.mailbox = Store(self.sim)
        self._rng = random.Random((seed << 8) | node_id)
        self._votes: set = set()
        self._next_index: Dict[int, int] = {}
        self._match_index: Dict[int, int] = {}
        self._pending: List[Tuple[Any, Any]] = []
        self._waiters: Dict[int, Any] = {}
        #: Blocked-on attribution (tracer-gated): waiter Event -> commit
        #: timeline stamps (proposed / flush_start / flush_end).  The
        #: proposer pops its entry via :meth:`pop_commit_stats` once the
        #: wait resolves; :meth:`_fail_waiters` clears the rest.  Waiter
        #: events carry ``__slots__``, hence this side table.
        self._commit_stats: Dict[Any, Dict[str, Any]] = {}
        #: Occupant label of the batch currently holding the leader's log
        #: fsync (tracer-gated): proposals arriving while a flush is in
        #: progress queued *behind* that batch's op, and the blame matrix
        #: names it.  ``None`` outside a flush.
        self._flushing_label: Optional[Tuple[str, Optional[str]]] = None
        #: Latest successful AppendReply timing per follower id
        #: ``{follower_id: (flush_us, apply_us)}`` (instrument-gated):
        #: feeds the per-replica commit stamps and the replicate-skew
        #: histogram — the residual the gating-follower split can't see.
        self._reply_times: Dict[int, Tuple[float, float]] = {}
        self._election_deadline = self._fresh_election_deadline()
        #: Open ``raft.election`` span (tracer-gated): begun when this node
        #: becomes a candidate, closed when the candidacy resolves (won /
        #: lost / superseded by a fresh election / node stopped).
        self._election_span = None
        self._heartbeat_deadline: Optional[float] = None
        self._flush_deadline: Optional[float] = None
        self._apply_signal = self.sim.event()
        self._readindex_proc = None
        self._stopped = False
        self._snapshot = None  # (last_index, last_term, blob)
        # Metrics.
        self.snapshots_taken = 0
        self.snapshots_installed = 0
        self.proposals = 0
        self.batches_flushed = 0
        self.entries_flushed = 0
        self.elections_started = 0
        self.applied_count = 0
        self._proc = self.sim.process(self._main_loop(),
                                      name=f"raft-{node_id}")

    # -- public API ----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    def propose(self, command: Any):
        """Queue a command for replication; returns an Event that triggers
        with the state machine's apply() result once committed.

        Must be called on the leader; raises :class:`NotLeaderError`
        otherwise.  Non-blocking: the node's event loop performs the actual
        log append, fsync and replication (batched per §5.2.3).
        """
        if self._stopped or self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_hint)
        waiter = self.sim.event()
        self._pending.append((command, waiter))
        self.proposals += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            # ``label``: the proposing op's own identity (propose runs
            # inline in the proposer's process) — becomes the culprit for
            # later proposals that queue behind this batch's flush.
            # ``queued_behind``: whichever batch held the log fsync when
            # we arrived; None means only the batch window gated us.
            self._commit_stats[waiter] = {
                "proposed": self.sim.now,
                "label": tracer.current_op_label(),
                "queued_behind": self._flushing_label,
            }
        self.mailbox.put(_POKE)
        return waiter

    def pop_commit_stats(self, waiter) -> Optional[Dict[str, Any]]:
        """Claim the commit-timeline stamps recorded for ``waiter``.

        Pure bookkeeping for blocked-on attribution; returns ``None`` when
        tracing was off or the stamps were cleared by a leadership change.
        """
        return self._commit_stats.pop(waiter, None)

    def read_barrier(self):
        """§5.1.3 follower/learner read: learn the leader's commitIndex
        (piggybacked across concurrent readers), then wait until our local
        applyIndex catches up.  Generator; returns the barrier index."""
        if self.role is Role.LEADER:
            return self.commit_index
        leader = self.group.current_leader()
        if leader is None:
            raise ServiceUnavailableError("raft leader")
        if self._readindex_proc is None or self._readindex_proc.triggered:
            self._readindex_proc = self.sim.process(
                self._query_commit_index(leader),
                name=f"readindex-{self.id}")
        target = yield self._readindex_proc
        while self.last_applied < target and not self._stopped:
            yield self._apply_signal
        return target

    def stop(self) -> None:
        """Shut the node down (failure injection / cluster teardown)."""
        self._stopped = True
        self._close_election_span("stopped")
        self._fail_waiters(NotLeaderError(None))
        self._proc.interrupt("stop")

    # -- event loop ------------------------------------------------------------

    def _main_loop(self):
        try:
            pending_get = None
            while not self._stopped:
                if pending_get is None:
                    pending_get = self.mailbox.get()
                if not pending_get.triggered:
                    deadline = self._next_deadline()
                    if deadline is None:
                        yield pending_get
                    else:
                        wait = max(0.0, deadline - self.sim.now)
                        yield AnyOf(self.sim,
                                    [pending_get, self.sim.timeout(wait)])
                if pending_get.triggered:
                    message = pending_get.value
                    pending_get = None
                    yield from self._handle(message)
                yield from self._check_timers()
        except Interrupt:
            return

    def _next_deadline(self) -> Optional[float]:
        if self.role is Role.LEADER:
            heartbeat, flush = self._heartbeat_deadline, self._flush_deadline
            if flush is None:
                return heartbeat
            return flush if heartbeat is None else min(heartbeat, flush)
        if self.role is Role.LEARNER:
            return None
        return self._election_deadline

    def _check_timers(self):
        now = self.sim.now
        if self.role in (Role.FOLLOWER, Role.CANDIDATE):
            if now >= self._election_deadline:
                yield from self._start_election()
        if self.role is Role.LEADER:
            if self._pending and self._flush_deadline is None:
                self._flush_deadline = (
                    now + self.config.batch_window_us
                    if self.config.batching_enabled else now)
            if (self._pending
                    and (now >= (self._flush_deadline or now)
                         or len(self._pending) >= self.config.max_batch)):
                yield from self._flush()
            if self._heartbeat_deadline is not None and now >= self._heartbeat_deadline:
                self._broadcast_append(allow_empty=True)
                self._heartbeat_deadline = now + self.config.heartbeat_us

    def _fresh_election_deadline(self) -> float:
        spread = self._rng.uniform(self.config.election_timeout_min_us,
                                   self.config.election_timeout_max_us)
        return self.sim.now + spread

    # -- elections ----------------------------------------------------------------

    def _start_election(self):
        self.current_term += 1
        self.role = Role.CANDIDATE
        self.voted_for = self.id
        self._votes = {self.id}
        self.elections_started += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            # One span per candidacy, from candidacy to resolution: the
            # vote fsync and RequestVote fan-out nest under it, so a traced
            # failover shows where the unavailability window went.
            self._close_election_span("superseded")
            span = tracer.begin("raft.election", self.sim.now,
                                category="raft", host=self.host.name)
            span.annotate(term=self.current_term, node=self.id)
            self._election_span = span
        self._election_deadline = self._fresh_election_deadline()
        # Persist the vote (term/votedFor are durable Raft state).
        yield from self.host.fsync()
        voters = self.group.voter_ids()
        if len(voters) == 1:
            self._become_leader()
            return
        for peer_id in voters:
            if peer_id != self.id:
                self.group.send(self.id, peer_id, RequestVote(
                    self.current_term, self.id,
                    self.log.last_index, self.log.last_term))

    def _close_election_span(self, outcome: str) -> None:
        """End the open candidacy span, if any (pure bookkeeping)."""
        span = self._election_span
        if span is not None:
            self._election_span = None
            tracer = self.sim.tracer
            if tracer.enabled:
                span.annotate(outcome=outcome)
                tracer.end(span, self.sim.now, ok=outcome == "won")

    def _become_leader(self) -> None:
        self._close_election_span("won")
        self.role = Role.LEADER
        self.leader_hint = self.id
        last = self.log.last_index
        for peer_id in self.group.replica_ids():
            self._next_index[peer_id] = last + 1
            self._match_index[peer_id] = 0
        self._heartbeat_deadline = self.sim.now  # heartbeat immediately
        self._flush_deadline = None
        # Commit a no-op of our own term so committed-but-unapplied entries
        # from previous terms become committable (Raft's term restriction).
        if self.log.last_index > self.commit_index:
            noop_waiter = self.sim.event()
            noop_waiter.defused()
            self._pending.insert(0, (NOOP_COMMAND, noop_waiter))

    def _step_down(self, term: int, leader_hint: Optional[int] = None) -> None:
        self._close_election_span("lost")
        self.current_term = term
        self.voted_for = None
        if not self.is_learner:
            self.role = Role.FOLLOWER
        if leader_hint is not None:
            self.leader_hint = leader_hint
        self._heartbeat_deadline = None
        self._flush_deadline = None
        self._election_deadline = self._fresh_election_deadline()
        self._fail_waiters(NotLeaderError(leader_hint))

    def _fail_waiters(self, error: Exception) -> None:
        for _command, waiter in self._pending:
            if not waiter.triggered:
                waiter.fail(error)
                waiter.defused()
        self._pending.clear()
        for waiter in self._waiters.values():
            if not waiter.triggered:
                waiter.fail(error)
                waiter.defused()
        self._waiters.clear()
        self._commit_stats.clear()

    # -- message handling -------------------------------------------------------------

    def _handle(self, message):
        if isinstance(message, _Poke):
            return
        tracer = self.sim.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin("raft." + type(message).__name__,
                                self.sim.now, category="raft",
                                host=self.host.name)
        try:
            yield from self.host.work(self.group.costs.raft_msg_us)
            if isinstance(message, RequestVote):
                yield from self._on_request_vote(message)
            elif isinstance(message, VoteReply):
                self._on_vote_reply(message)
            elif isinstance(message, AppendEntries):
                yield from self._on_append_entries(message)
            elif isinstance(message, AppendReply):
                yield from self._on_append_reply(message)
            elif isinstance(message, InstallSnapshot):
                yield from self._on_install_snapshot(message)
            elif isinstance(message, SnapshotReply):
                self._on_snapshot_reply(message)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown raft message {message!r}")
        finally:
            if span is not None:
                tracer.end(span, self.sim.now)

    def _on_request_vote(self, msg: RequestVote):
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = False
        if (not self.is_learner
                and msg.term == self.current_term
                and self.voted_for in (None, msg.candidate_id)
                and self.log.up_to_date(msg.last_log_index, msg.last_log_term)):
            granted = True
            self.voted_for = msg.candidate_id
            self._election_deadline = self._fresh_election_deadline()
            yield from self.host.fsync()  # durable vote
        self.group.send(self.id, msg.candidate_id,
                        VoteReply(self.current_term, self.id, granted))

    def _on_vote_reply(self, msg: VoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.current_term:
            return
        if msg.granted:
            self._votes.add(msg.voter_id)
            if len(self._votes) >= self.group.quorum():
                self._become_leader()

    def _on_append_entries(self, msg: AppendEntries):
        if msg.term < self.current_term:
            self.group.send(self.id, msg.leader_id, AppendReply(
                self.current_term, self.id, False, 0))
            return
        if msg.term > self.current_term or self.role is Role.CANDIDATE:
            self._step_down(msg.term, msg.leader_id)
        self.leader_hint = msg.leader_id
        self._election_deadline = self._fresh_election_deadline()
        if not self.log.matches(msg.prev_index, msg.prev_term):
            hint = min(msg.prev_index - 1, self.log.last_index)
            self.group.send(self.id, msg.leader_id, AppendReply(
                self.current_term, self.id, False,
                max(self.log.base_index, hint, 0)))
            return
        appended = self.log.merge(msg.prev_index, msg.entries)
        # Timing piggyback for the tracer's commit-wait split and the
        # telemetry skew histogram; measuring it is pure subtraction.
        flush_us = apply_us = 0.0
        if appended:
            flush_started = self.sim.now
            yield from self.host.fsync()  # one fsync per shipped batch
            flush_us = self.sim.now - flush_started
        match = msg.prev_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            # Only up to the last entry this message vouches for: a suffix
            # beyond it may be a deposed leader's (Raft Fig. 2, step 5).
            self.commit_index = max(self.commit_index,
                                    min(msg.leader_commit, match))
            apply_started = self.sim.now
            yield from self._apply_committed()
            apply_us = self.sim.now - apply_started
        self.group.send(self.id, msg.leader_id, AppendReply(
            self.current_term, self.id, True, match, flush_us, apply_us))

    def _on_append_reply(self, msg: AppendReply):
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        peer = msg.follower_id
        match = self._match_index.get(peer, 0)
        if msg.success:
            match = self._match_index[peer] = max(match, msg.match_index)
            # ``next`` already points past everything shipped (see
            # _send_append); an old reply must not pull it back.
            self._next_index[peer] = max(self._next_index[peer], match + 1)
            self._reply_times[peer] = (msg.flush_us, msg.apply_us)
            yield from self._advance_commit(gating=msg)
            # Catch-up beyond one message's replication_limit: entries
            # never shipped yet, so nothing crosses the wire twice.
            if self._next_index[peer] <= self.log.last_index:
                self._send_append(peer)
        else:
            # Rewind to the follower's hint and resend — but never below
            # what it has acknowledged (a stale, reordered rejection).
            self._next_index[peer] = max(match, msg.match_index) + 1
            self._send_append(peer)

    # -- leader replication -------------------------------------------------------------

    def _flush(self):
        """Append a batch of pending proposals, fsync once, replicate."""
        size = self.config.max_batch if self.config.batching_enabled else 1
        batch = self._pending[:size]
        del self._pending[:len(batch)]
        for command, waiter in batch:
            entry = self.log.append(self.current_term, command)
            self._waiters[entry.index] = waiter
        self.batches_flushed += 1
        self.entries_flushed += len(batch)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            host = self.host.name
            telemetry.counter("raft.flushes", host).add(self.sim._now)
            telemetry.histogram("raft.batch_entries", host).record(
                self.sim._now, len(batch))
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin("raft.flush", self.sim.now, category="raft",
                                host=self.host.name)
            span.annotate(entries=len(batch))
            stats = self._commit_stats
            # While this fsync holds the log, arriving proposals queue
            # behind the batch's lead op: publish its label as occupant.
            lead = stats.get(batch[0][1]) if stats else None
            self._flushing_label = lead.get("label") if lead else None
            flush_start = self.sim.now
            yield from self.host.fsync()
            flush_end = self.sim.now
            self._flushing_label = None
            tracer.end(span, flush_end)
            if stats:
                for _command, waiter in batch:
                    entry_stats = stats.get(waiter)
                    if entry_stats is not None:
                        entry_stats["flush_start"] = flush_start
                        entry_stats["flush_end"] = flush_end
        else:
            yield from self.host.fsync()
        if not self._pending:
            self._flush_deadline = None
        elif self.config.batching_enabled:
            self._flush_deadline = self.sim.now + self.config.batch_window_us
        else:
            self._flush_deadline = self.sim.now
        yield from self._advance_commit()
        self._broadcast_append()

    def _broadcast_append(self, allow_empty: bool = False) -> None:
        for peer_id in self.group.replica_ids():
            if peer_id != self.id:
                self._send_append(peer_id, allow_empty=allow_empty)

    def _send_append(self, peer_id: int, allow_empty: bool = True) -> None:
        next_index = self._next_index.get(peer_id, self.log.last_index + 1)
        if next_index <= self.log.base_index:
            # The entries this replica needs were compacted away: ship the
            # snapshot instead (Raft's InstallSnapshot path).
            if self._snapshot is not None:
                last_index, last_term, blob = self._snapshot
                self.group.send(self.id, peer_id, InstallSnapshot(
                    self.current_term, self.id, last_index, last_term, blob))
            return
        entries = tuple(self.log.entries_from(
            next_index, self.config.replication_limit))
        if not entries and not allow_empty:
            return
        prev_index = next_index - 1
        prev_term = self.log.term_at(prev_index)
        if prev_term is None:
            prev_index = self.log.base_index
            prev_term = self.log.base_term
        self.group.send(self.id, peer_id, AppendEntries(
            self.current_term, self.id, prev_index, prev_term,
            entries, self.commit_index))
        # Optimistic pipelining (etcd's ``replicate`` state): assume the
        # entries arrive, so each is shipped once.  A lost or reordered
        # message surfaces as a refused ``prev_index`` on the next
        # AppendEntries (the heartbeat at the latest) and rewinds this.
        self._next_index[peer_id] = prev_index + 1 + len(entries)

    def _committable_index(self) -> int:
        """The quorum-th largest match index (ours is last_index) is the
        highest N a voter majority holds; replication count is monotone in
        N and terms are monotone in the log, so one term check decides
        whether N may commit (Raft §5.4.2: only current-term entries
        commit by counting)."""
        match_index = self._match_index
        held = sorted(self.log.last_index if vid == self.id
                      else match_index.get(vid, 0)
                      for vid in self.group.voter_ids())
        candidate = held[-self.group.quorum()]
        if (candidate > self.commit_index
                and self.log.term_at(candidate) == self.current_term):
            return candidate
        return self.commit_index

    def _advance_commit(self, gating: Optional[AppendReply] = None):
        """Advance commitIndex to the highest N replicated on a voter
        majority with log[N].term == currentTerm, then apply.

        ``gating`` is the AppendReply whose arrival triggered this advance
        (None when called from the leader's own flush).  When its reply
        carries follower timing and the commit point moves, those times are
        stamped into the newly committed entries' commit stats so the
        proposer can split its replication wait into wire vs follower work.
        """
        if self.role is not Role.LEADER:
            return
        old_commit = self.commit_index
        self.commit_index = self._committable_index()
        if gating is not None and self.commit_index > old_commit:
            # Tell followers and learners now, not at the next heartbeat:
            # §5.1.3 follower reads wait on leader_commit.
            self._broadcast_append(allow_empty=True)
            if self._commit_stats and self.sim.tracer.enabled:
                follower = self.group.nodes.get(gating.follower_id)
                follower_host = (follower.host.name if follower is not None
                                 else f"raft-{gating.follower_id}")
                # Per-replica view: every follower's latest flush/apply,
                # not just the gating one's, so the replicate remainder's
                # residual skew is measurable from the stats dict.
                replicas = {}
                for fid, (f_us, a_us) in self._reply_times.items():
                    node = self.group.nodes.get(fid)
                    name = (node.host.name if node is not None
                            else f"raft-{fid}")
                    replicas[name] = (f_us, a_us)
                for index in range(old_commit + 1, self.commit_index + 1):
                    waiter = self._waiters.get(index)
                    stats = (self._commit_stats.get(waiter)
                             if waiter is not None else None)
                    if stats is not None:
                        stats["follower_flush_us"] = gating.flush_us
                        stats["follower_apply_us"] = gating.apply_us
                        stats["follower_host"] = follower_host
                        stats["replica_times"] = replicas
            telemetry = self.sim.telemetry
            if telemetry.enabled and self._reply_times:
                # Residual replica skew: how far the slowest known
                # follower trails the gating one (flush + apply).  This
                # is the part of ``raft.replicate`` no piggyback splits.
                gate = gating.flush_us + gating.apply_us
                slowest = max(f + a for f, a in self._reply_times.values())
                telemetry.histogram(
                    "raft.replicate.skew_us", self.host.name).record(
                    self.sim._now, max(0.0, slowest - gate))
        yield from self._apply_committed()

    def _apply_committed(self):
        """Apply every committed-but-unapplied entry to the state machine."""
        applied_any = False
        telemetry = self.sim.telemetry
        if telemetry.enabled and self.last_applied < self.commit_index:
            # Apply lag: how far the state machine trails the commit point
            # when an apply round starts (batching + fsync pressure show up
            # here before they show up in client latency).
            telemetry.histogram("raft.apply_lag", self.host.name).record(
                self.sim._now, self.commit_index - self.last_applied)
        tracer = self.sim.tracer
        if tracer.enabled and self.last_applied < self.commit_index:
            span = tracer.begin("raft.apply", self.sim.now, category="raft",
                                host=self.host.name)
            span.annotate(entries=self.commit_index - self.last_applied)
        else:
            span = None
        while self.last_applied < self.commit_index:
            entry = self.log.entry(self.last_applied + 1)
            yield from self.host.work(self.group.costs.raft_apply_us)
            if entry.command == NOOP_COMMAND:
                result = None
            else:
                result = self.state_machine.apply(entry.command)
            self.last_applied += 1
            self.applied_count += 1
            applied_any = True
            waiter = self._waiters.pop(entry.index, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(result)
        if span is not None:
            tracer.end(span, self.sim.now)
        if applied_any:
            signal = self._apply_signal
            self._apply_signal = self.sim.event()
            signal.succeed(self.last_applied)
            yield from self._maybe_snapshot()

    def _maybe_snapshot(self):
        """Compact the log once enough entries have been applied (§7 of
        the Raft paper); keeps long-lived IndexNodes' logs bounded."""
        threshold = self.config.snapshot_threshold
        if threshold <= 0 or not hasattr(self.state_machine, "snapshot"):
            return
        if self.last_applied - self.log.base_index < threshold:
            return
        blob = self.state_machine.snapshot()
        term = self.log.term_at(self.last_applied)
        self._snapshot = (self.last_applied, term, blob)
        self.log.compact_to(self.last_applied, term)
        self.snapshots_taken += 1
        # A snapshot is a durable on-disk artifact.
        yield from self.host.fsync()

    def _on_install_snapshot(self, msg: InstallSnapshot):
        if msg.term < self.current_term:
            self.group.send(self.id, msg.leader_id, SnapshotReply(
                self.current_term, self.id, 0))
            return
        if msg.term > self.current_term or self.role is Role.CANDIDATE:
            self._step_down(msg.term, msg.leader_id)
        self.leader_hint = msg.leader_id
        self._election_deadline = self._fresh_election_deadline()
        if msg.last_index > self.last_applied:
            self.state_machine.restore(msg.blob)
            self.log.reset_to(msg.last_index, msg.last_term)
            self.commit_index = msg.last_index
            self.last_applied = msg.last_index
            self.snapshots_installed += 1
            yield from self.host.fsync()
            signal = self._apply_signal
            self._apply_signal = self.sim.event()
            signal.succeed(self.last_applied)
        self.group.send(self.id, msg.leader_id, SnapshotReply(
            self.current_term, self.id, self.last_applied))

    def _on_snapshot_reply(self, msg: SnapshotReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.last_index == 0:
            return
        self._match_index[msg.follower_id] = max(
            self._match_index.get(msg.follower_id, 0), msg.last_index)
        self._next_index[msg.follower_id] = max(
            self._next_index[msg.follower_id], msg.last_index + 1)
        if self._next_index[msg.follower_id] <= self.log.last_index:
            self._send_append(msg.follower_id)

    # -- follower read plumbing ------------------------------------------------------------

    def _query_commit_index(self, leader: "RaftNode"):
        """One batched commitIndex query: an RTT to the leader."""
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin("raft.readindex", self.sim.now,
                                category="raft", host=self.host.name)
            sent_us = self.sim._now
            yield from self.group.network.transit()
            target = leader.commit_index
            yield from self.group.network.transit()
            tracer.charge("wire", self.sim._now - sent_us, self.host.name)
            tracer.end(span, self.sim.now)
        else:
            yield from self.group.network.transit()
            target = leader.commit_index
            yield from self.group.network.transit()
        return target
