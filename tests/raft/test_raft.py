"""Integration tests for Raft: elections, replication, batching, reads."""

import pytest

from repro.errors import ServiceUnavailableError
from repro.raft.group import RaftGroup
from repro.raft.node import NotLeaderError, RaftConfig, Role
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network


class ListMachine:
    """Deterministic state machine recording applied commands."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.commands = []

    def apply(self, command):
        self.commands.append(command)
        return ("applied", command)


def build_group(voters=3, learners=0, batching=True, seed=1,
                batch_window_us=100.0, jitter_frac=0.0):
    sim = Simulator()
    net = Network(sim, one_way_us=50, jitter_frac=jitter_frac)
    hosts = [Host(sim, f"idx-{i}", cores=4, fsync_us=120)
             for i in range(voters + learners)]
    config = RaftConfig(batching_enabled=batching,
                        batch_window_us=batch_window_us)
    group = RaftGroup(sim, net, hosts, ListMachine, voters, learners,
                      config=config, costs=CostModel(), seed=seed)
    return sim, group


def elect(sim, group):
    return sim.run_process(group.wait_for_leader())


class TestElection:
    def test_single_node_elects_itself(self):
        sim, group = build_group(voters=1)
        leader = elect(sim, group)
        assert leader.is_leader
        assert leader.current_term == 1

    def test_three_nodes_elect_exactly_one_leader(self):
        sim, group = build_group(voters=3)
        elect(sim, group)
        sim.run(until=sim.now + 300_000)
        leaders = [n for n in group.nodes.values() if n.role is Role.LEADER]
        assert len(leaders) == 1

    def test_leader_is_stable_under_heartbeats(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        term = leader.current_term
        sim.run(until=sim.now + 1_000_000)
        assert group.current_leader() is leader
        assert leader.current_term == term

    def test_reelection_after_leader_crash(self):
        sim, group = build_group(voters=3)
        old = elect(sim, group)
        group.crash_node(old.id)
        new = sim.run_process(group.wait_for_leader())
        assert new.id != old.id
        assert new.current_term > old.current_term

    def test_learners_never_become_leader(self):
        sim, group = build_group(voters=3, learners=2)
        elect(sim, group)
        sim.run(until=sim.now + 500_000)
        for lid in group.learner_ids():
            assert group.nodes[lid].role is Role.LEARNER

    def test_quorum_math(self):
        _, g1 = build_group(voters=1)
        _, g3 = build_group(voters=3)
        _, g5 = build_group(voters=5)
        assert g1.quorum() == 1
        assert g3.quorum() == 2
        assert g5.quorum() == 3


class TestReplication:
    def test_propose_applies_on_leader(self):
        sim, group = build_group(voters=3)

        def body():
            leader = yield from group.wait_for_leader()
            result = yield leader.propose("cmd-1")
            return leader, result

        leader, result = sim.run_process(body())
        assert result == ("applied", "cmd-1")
        assert leader.state_machine.commands == ["cmd-1"]

    def test_entries_reach_all_replicas_including_learners(self):
        sim, group = build_group(voters=3, learners=1)

        def body():
            leader = yield from group.wait_for_leader()
            for i in range(5):
                yield leader.propose(f"cmd-{i}")

        sim.run_process(body())
        sim.run(until=sim.now + 100_000)  # let heartbeats carry commitIndex
        for node in group.nodes.values():
            assert node.state_machine.commands == [f"cmd-{i}" for i in range(5)]

    def test_apply_order_is_identical_everywhere(self):
        sim, group = build_group(voters=3)

        def proposer(tag):
            leader = yield from group.wait_for_leader()
            for i in range(10):
                yield leader.propose(f"{tag}-{i}")

        def body():
            yield from group.wait_for_leader()
            done = [sim.process(proposer(t)) for t in ("a", "b")]
            yield sim.all_of(done)

        sim.run_process(body())
        sim.run(until=sim.now + 100_000)
        sequences = [tuple(n.state_machine.commands) for n in group.nodes.values()]
        assert len(set(sequences)) == 1
        assert len(sequences[0]) == 20

    def test_propose_on_follower_raises_not_leader(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        follower = next(n for n in group.nodes.values() if n is not leader)
        with pytest.raises(NotLeaderError):
            follower.propose("nope")

    def test_backlog_ships_in_chunks(self):
        sim, group = build_group(voters=3)

        def body():
            leader = yield from group.wait_for_leader()
            waiters = [leader.propose(f"c{i}") for i in range(200)]
            yield sim.all_of(waiters)
            return leader

        leader = sim.run_process(body())
        sim.run(until=sim.now + 200_000)
        assert leader.log.last_index == 200
        for node in group.nodes.values():
            assert node.last_applied == 200


class TestBatching:
    def _run_burst(self, batching):
        sim, group = build_group(voters=1, batching=batching)

        def body():
            leader = yield from group.wait_for_leader()
            base = leader.host.fsync_count
            waiters = [leader.propose(f"c{i}") for i in range(32)]
            yield sim.all_of(waiters)
            return leader.host.fsync_count - base, leader.batches_flushed

        return sim.run_process(body())

    def test_batching_amortizes_fsyncs(self):
        fsyncs_batched, batches = self._run_burst(batching=True)
        fsyncs_unbatched, _ = self._run_burst(batching=False)
        assert fsyncs_batched < fsyncs_unbatched
        assert fsyncs_batched <= batches + 1

    def test_unbatched_pays_per_proposal(self):
        fsyncs, _ = self._run_burst(batching=False)
        # Proposals arrive at the same instant; each flush pass takes
        # whatever is pending, so we only require at least a few syncs and
        # correctness of results (checked by the waiters resolving).
        assert fsyncs >= 1


class TestFollowerRead:
    def test_read_barrier_waits_for_apply(self):
        sim, group = build_group(voters=3)

        def body():
            leader = yield from group.wait_for_leader()
            yield leader.propose("x")
            follower = next(n for n in group.nodes.values()
                            if n.role is Role.FOLLOWER)
            barrier = yield from follower.read_barrier()
            return follower, barrier

        follower, barrier = sim.run_process(body())
        assert barrier >= 1
        assert follower.last_applied >= barrier
        assert follower.state_machine.commands == ["x"]

    def test_leader_read_barrier_is_immediate(self):
        sim, group = build_group(voters=3)

        def body():
            leader = yield from group.wait_for_leader()
            yield leader.propose("x")
            before = sim.now
            barrier = yield from leader.read_barrier()
            return barrier, sim.now - before

        barrier, elapsed = sim.run_process(body())
        assert barrier >= 1
        assert elapsed == 0.0

    def test_concurrent_barriers_share_one_query(self):
        sim, group = build_group(voters=3)

        def body():
            leader = yield from group.wait_for_leader()
            yield leader.propose("x")
            follower = next(n for n in group.nodes.values()
                            if n.role is Role.FOLLOWER)
            before = group.network.message_count

            def reader():
                result = yield from follower.read_barrier()
                return result

            readers = [sim.process(reader()) for _ in range(8)]
            yield sim.all_of(readers)
            # 8 concurrent readers, one piggybacked commitIndex RTT
            # (2 transits), modulo raft background chatter in the window.
            return group.network.message_count - before

        extra = sim.run_process(body())
        assert extra <= 8  # far fewer than 16 transits for 8 separate RTTs

    def test_learner_read_barrier(self):
        sim, group = build_group(voters=3, learners=1)

        def body():
            leader = yield from group.wait_for_leader()
            yield leader.propose("x")
            learner = group.nodes[group.learner_ids()[0]]
            yield from learner.read_barrier()
            return learner

        learner = sim.run_process(body())
        assert learner.state_machine.commands == ["x"]

    def test_read_barrier_without_leader_raises(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        for node_id in list(group.nodes):
            group.crash_node(node_id)

        follower = group.nodes[(leader.id + 1) % 3]

        def body():
            yield from follower.read_barrier()

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(body())


class TestFaultTolerance:
    def test_committed_entries_survive_leader_crash(self):
        sim, group = build_group(voters=3)

        def phase1():
            leader = yield from group.wait_for_leader()
            for i in range(3):
                yield leader.propose(f"pre-{i}")
            return leader

        old = sim.run_process(phase1())
        group.crash_node(old.id)

        def phase2():
            leader = yield from group.wait_for_leader()
            yield leader.propose("post")
            return leader

        new = sim.run_process(phase2())
        assert new.state_machine.commands == ["pre-0", "pre-1", "pre-2", "post"]

    def test_pending_proposals_fail_on_step_down(self):
        sim, group = build_group(voters=3)
        leader = elect(sim, group)
        waiter = leader.propose("doomed")
        leader._step_down(leader.current_term + 10)
        assert waiter.triggered
        assert isinstance(waiter.value, NotLeaderError)

    def test_stopped_node_rejects_proposals(self):
        sim, group = build_group(voters=1)
        leader = elect(sim, group)
        leader.stop()
        with pytest.raises(NotLeaderError):
            leader.propose("x")
