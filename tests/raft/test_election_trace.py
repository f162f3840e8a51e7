"""Smoke test for traced Raft elections.

A leader crash under an enabled tracer must leave a well-formed
``raft.election`` span trail: one span per candidacy, annotated with term
and outcome, the winning candidacy marked ok with its vote fsync charged,
and the whole trace digestible by the critical-path extractor.
"""

from repro.raft.group import RaftGroup
from repro.raft.node import RaftConfig
from repro.sim.core import Simulator
from repro.sim.critpath import build_critpath
from repro.sim.host import CostModel, Host
from repro.sim.network import Network
from repro.sim.trace import SpanIndex, Tracer


class _NullMachine:
    def __init__(self, node_id):
        self.node_id = node_id

    def apply(self, command):
        return None


def _build_traced_group(voters=3, seed=1):
    sim = Simulator(tracer=Tracer())
    net = Network(sim, one_way_us=50)
    hosts = [Host(sim, f"idx-{i}", cores=4, fsync_us=120)
             for i in range(voters)]
    group = RaftGroup(sim, net, hosts, _NullMachine, voters, 0,
                      config=RaftConfig(), costs=CostModel(), seed=seed)
    return sim, group


def _election_spans(tracer):
    return [s for s in tracer.spans if s.name == "raft.election"]


class TestTracedElection:
    def test_leader_crash_leaves_well_formed_election_spans(self):
        sim, group = _build_traced_group()
        first = sim.run_process(group.wait_for_leader())
        group.crash_node(first.id)
        second = sim.run_process(group.wait_for_leader())
        assert second.id != first.id
        group.stop()

        spans = _election_spans(sim.tracer)
        # At least the initial election and the post-crash one.
        assert len(spans) >= 2
        for span in spans:
            assert span.category == "raft"
            assert span.end_us is not None and span.end_us >= span.start_us
            assert span.host is not None
            attrs = span.attrs or {}
            assert attrs.get("term", 0) >= 1
            assert attrs.get("outcome") in (
                "won", "lost", "superseded", "stopped")
            assert span.ok == (attrs.get("outcome") == "won")

        won = [s for s in spans if (s.attrs or {}).get("outcome") == "won"]
        assert won, "no winning candidacy traced"
        # The new leader's winning candidacy happened after the crash and
        # carries a strictly higher term than the first election's.
        terms = [(s.attrs or {})["term"] for s in won]
        assert max(terms) >= 2

    def test_winning_candidacy_charges_vote_fsync(self):
        sim, group = _build_traced_group(voters=1)
        leader = sim.run_process(group.wait_for_leader())
        group.stop()
        won = [s for s in _election_spans(sim.tracer)
               if (s.attrs or {}).get("outcome") == "won"
               and (s.attrs or {}).get("node") == leader.id]
        assert won
        span = won[0]
        # The durable vote write nests under the candidacy: its cost is
        # charged to the open election span, keyed (kind, host).
        fsync_us = sum(us for (kind, _host), us in (span.costs or {}).items()
                       if kind == "fsync")
        assert fsync_us > 0.0
        # The unavailability window is real simulated time.
        assert span.duration_us > 0.0

    def test_election_trace_feeds_critpath_extractor(self):
        sim, group = _build_traced_group()
        first = sim.run_process(group.wait_for_leader())
        group.crash_node(first.id)
        sim.run_process(group.wait_for_leader())
        group.stop()
        # Elections are raft-category roots, not ops; the extractor must
        # digest the trace without choking on them (zero ops is fine).
        crit = build_critpath(SpanIndex(sim.tracer.spans),
                              name="election-smoke")
        assert crit.op_failures == 0
        assert crit.conservation_error() < 1e-6
