"""Raft RPC messages (sent asynchronously through mailbox Stores)."""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.raft.log import LogEntry


@dataclasses.dataclass(frozen=True)
class RequestVote:
    term: int
    candidate_id: int
    last_log_index: int
    last_log_term: int


@dataclasses.dataclass(frozen=True)
class VoteReply:
    term: int
    voter_id: int
    granted: bool


@dataclasses.dataclass(frozen=True)
class AppendEntries:
    term: int
    leader_id: int
    prev_index: int
    prev_term: int
    entries: Tuple[LogEntry, ...]
    leader_commit: int


@dataclasses.dataclass(frozen=True)
class AppendReply:
    term: int
    follower_id: int
    success: bool
    match_index: int
    #: Tracer-gated timing piggyback (0.0 when tracing is off): how long
    #: this follower spent fsyncing the shipped batch and applying newly
    #: committed entries before replying.  Lets the leader split a
    #: proposer's ``raft.replicate`` wait into wire vs follower-fsync vs
    #: follower-CPU.  Pure bookkeeping: never read by the protocol.
    flush_us: float = 0.0
    apply_us: float = 0.0


@dataclasses.dataclass(frozen=True)
class InstallSnapshot:
    """Ship a full state-machine snapshot to a replica whose next entry has
    been compacted away (Raft §7)."""

    term: int
    leader_id: int
    last_index: int
    last_term: int
    blob: object


@dataclasses.dataclass(frozen=True)
class SnapshotReply:
    term: int
    follower_id: int
    last_index: int
