"""Replication flow control: each entry crosses the wire once per replica
(optimistic ``next_index``), commits are broadcast at once, and the O(1)
commit rule equals the candidate walk it replaced."""

import collections
import random

import pytest

from repro.raft.messages import AppendEntries, AppendReply
from repro.raft.node import Role
from tests.raft.test_raft import build_group, elect


def count_shipped_entries(group):
    """Tally ``len(AppendEntries.entries)`` per destination from now on."""
    shipped = collections.Counter()
    plain_send = group.send

    def counting_send(from_id, to_id, message):
        if isinstance(message, AppendEntries):
            shipped[to_id] += len(message.entries)
        plain_send(from_id, to_id, message)

    group.send = counting_send
    return shipped


def storm(sim, leader, clients, per_client):
    """Closed-loop proposers, all inside the batch window of each other."""

    def proposer(tag):
        for i in range(per_client):
            yield leader.propose(f"{tag}-{i}")

    def body():
        yield sim.all_of([sim.process(proposer(t)) for t in range(clients)])

    sim.run_process(body())


class TestEachEntryShippedOnce:
    @pytest.mark.parametrize("batching, msgs_per_proposal", [
        # Per flush and peer: AppendEntries + reply, commit broadcast +
        # reply.  Batching spreads those 4 x 3 messages over a batch ...
        (True, 3.0),
        # ... LocoFS's configuration pays them for every proposal (the
        # half is the heartbeats of the ~70 ms the storm lasts).
        (False, 12.5),
    ])
    def test_storm_ships_each_entry_once_per_replica(self, batching,
                                                     msgs_per_proposal):
        sim, group = build_group(voters=3, learners=1, batching=batching)
        leader = elect(sim, group)
        sim.run(until=sim.now + 50_000)  # election chatter done
        shipped = count_shipped_entries(group)
        sent_before = group.messages_sent
        proposals = 32 * 16
        storm(sim, leader, clients=32, per_client=16)
        sent = group.messages_sent - sent_before
        sim.run(until=sim.now + 50_000)
        assert leader.log.last_index == proposals
        peers = [nid for nid in group.replica_ids() if nid != leader.id]
        assert {nid: shipped[nid] for nid in peers} == \
            {nid: proposals for nid in peers}
        for node in group.nodes.values():
            assert node.last_applied == proposals
        assert sent / proposals <= msgs_per_proposal


class TestHealing:
    def test_follower_that_dropped_messages_converges_after_heal(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        sim.run(until=sim.now + 20_000)
        follower = next(n for n in group.nodes.values()
                        if n.role is Role.FOLLOWER)
        follower.host.crash()  # messages to it are dropped on the floor
        storm(sim, leader, clients=8, per_client=25)
        assert follower.log.last_index == 0
        # The leader pipelined past everything the follower never got.
        assert leader._next_index[follower.id] == leader.log.last_index + 1

        follower.host.recover()
        sim.run(until=sim.now + 2 * group.config.heartbeat_us)
        assert follower.log.last_index == leader.log.last_index == 200
        assert follower.last_applied == 200
        assert leader._next_index[follower.id] <= follower.log.last_index + 1
        assert leader._match_index[follower.id] == 200

        storm(sim, leader, clients=8, per_client=5)
        sim.run(until=sim.now + 2 * group.config.heartbeat_us)
        assert follower.last_applied == leader.last_applied == 240
        assert leader._next_index[follower.id] == follower.log.last_index + 1
        assert follower.state_machine.commands == \
            leader.state_machine.commands

    def test_stale_rejection_does_not_rewind_below_match(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        storm(sim, leader, clients=4, per_client=5)
        sim.run(until=sim.now + 20_000)
        follower = next(n for n in group.nodes.values()
                        if n.role is Role.FOLLOWER)
        assert leader._match_index[follower.id] == 20
        shipped = count_shipped_entries(group)
        # A rejection from before the follower caught up, delivered late.
        sim.run_process(leader._on_append_reply(AppendReply(
            leader.current_term, follower.id, False, 3)))
        assert leader._next_index[follower.id] == 21
        assert shipped[follower.id] == 0


class TestReordering:
    def test_jittered_network_applies_one_sequence_everywhere(self):
        sim, group = build_group(voters=3, learners=1, jitter_frac=0.3)
        leader = elect(sim, group)
        term = leader.current_term
        storm(sim, leader, clients=16, per_client=20)
        sim.run(until=sim.now + 3 * group.config.heartbeat_us)
        assert group.current_leader() is leader
        assert leader.current_term == term
        sequences = {tuple(n.state_machine.commands)
                     for n in group.nodes.values()}
        assert len(sequences) == 1
        assert len(sequences.pop()) == 320
        for node in group.nodes.values():  # nobody wedged behind a gap
            assert node.last_applied == leader.commit_index == 320
            if node is not leader:
                assert leader._match_index[node.id] == 320
                assert leader._next_index[node.id] == 321


class TestCommitBroadcast:
    @pytest.mark.parametrize("learners, pick", [
        (0, lambda g: next(n for n in g.nodes.values()
                           if n.role is Role.FOLLOWER)),
        (1, lambda g: g.nodes[g.learner_ids()[0]]),
    ])
    def test_read_barrier_after_commit_does_not_wait_for_heartbeat(
            self, learners, pick):
        """§5.1.3: a follower read right after a commit costs the
        commitIndex round trip plus the apply — the leader announced the
        new commit index when it moved, not at the next heartbeat."""
        sim, group = build_group(voters=3, learners=learners)
        heartbeat_us = group.config.heartbeat_us
        rtt_us = 2 * group.network.one_way_us

        def body():
            leader = yield from group.wait_for_leader()
            reader = pick(group)
            waits = []
            for i in range(7):
                # Walk the commit across the heartbeat period's phases.
                yield sim.timeout(0.37 * heartbeat_us)
                yield leader.propose(f"x{i}")
                asked = sim.now
                barrier = yield from reader.read_barrier()
                assert reader.last_applied >= barrier >= i + 1
                waits.append(sim.now - asked)
            return waits

        waits = sim.run_process(body())
        assert max(waits) <= 2 * rtt_us
        assert max(waits) < heartbeat_us / 10


def reference_commit_index(node):
    """The candidate walk ``_advance_commit`` used before the O(1) rule,
    kept as the oracle: highest N above commitIndex, of the current term,
    held by a voter majority."""
    voters = node.group.voter_ids()
    for candidate in range(node.log.last_index, node.commit_index, -1):
        if node.log.term_at(candidate) != node.current_term:
            break
        replicated = sum(
            1 for vid in voters
            if vid == node.id or node._match_index.get(vid, 0) >= candidate)
        if replicated >= node.group.quorum():
            return candidate
    return node.commit_index


class TestCommitRule:
    @pytest.mark.parametrize("voters", [1, 3, 5])
    def test_quorum_rule_equals_candidate_walk(self, voters):
        rng = random.Random(voters)
        sim, group = build_group(voters=voters, learners=1)
        node = group.nodes[0]
        node.role = Role.LEADER
        for _case in range(400):
            node.log.reset_to(rng.randrange(0, 5), 1)
            base = node.log.base_index
            # Terms never decrease along a log; the suffix may or may not
            # reach the leader's own term (a fresh leader's has not).
            term, top = 1, rng.choice([2, 3, 3, 3])
            for _ in range(rng.randrange(0, 12)):
                term = min(top, term + rng.choice([0, 0, 0, 1]))
                node.log.append(term, "c")
            node.current_term = 3
            last = node.log.last_index
            node.commit_index = rng.randrange(base, last + 1)
            node._match_index = {
                nid: rng.randrange(0, last + 1)
                for nid in group.replica_ids() if rng.random() < 0.9}
            assert node._committable_index() == \
                reference_commit_index(node)

    def test_prior_term_entries_do_not_commit_by_counting(self):
        """Raft §5.4.2: a fresh leader's log ends in a prior term's
        entries; even fully replicated they commit only under an entry of
        its own term."""
        sim, group = build_group(voters=3)
        node = group.nodes[0]
        node.role = Role.LEADER
        node.current_term = 3
        for term in (1, 1, 2, 2):
            node.log.append(term, "c")
        node._match_index = {1: 4, 2: 4}
        assert node._committable_index() == node.commit_index == 0
        node.log.append(3, "noop")
        assert node._committable_index() == 0  # not replicated yet
        node._match_index[1] = 5
        assert node._committable_index() == 5

    def test_follower_commit_stops_at_what_the_message_vouches_for(self):
        """A follower holding a longer suffix than the AppendEntries covers
        (a deposed leader's) may only commit up to prev_index + entries."""
        sim, group = build_group(voters=3)
        follower = group.nodes[1]
        for i in range(6):
            follower.log.append(1, f"c{i}")
        entries = tuple(follower.log.entries_from(1, 2))
        sim.run_process(follower._on_append_entries(AppendEntries(
            1, 0, 0, 0, entries, leader_commit=5)))
        assert follower.commit_index == 2
        assert follower.last_applied == 2
