"""Every fold over the one :class:`~repro.sim.trace.SpanIndex` equals the
tree builder that fold used before the index existed (``tests/oracle.py``),
and the tracer's per-op fold (``Tracer.aggregates``, made as each op ends)
equals the reference fold over a ring that dropped nothing — on the
simulated runs below and a fig15 InfiniFS shared-directory dirrename case.

Compared exactly — same keys, same insertion order, same float bits — on:

* a Mantle shared-directory mkdir run, whose 2PC fan-out legs join the
  op trees through ``join_to`` edges, and a mixed run on each baseline;
* seeded synthetic traces through a ring small enough to drop parents:
  spawned work outlives the span that spawned it and some spans are still
  open at the end, so dynamic, ``join_to`` and declared orphans appear;
* a :class:`~repro.sim.trace.TailKeeper` retained set;
* live snapshots from a traced in-process cluster (remote parents), whole
  and with one process left out (dangling remote parents).
"""

import random

import pytest

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.experiments.base import run_case
from repro.experiments.fig15_dirmod_breakdown import CASES
from repro.runtime import obs
from repro.runtime.client import LiveClient
from repro.runtime.live import InProcessCluster
from repro.sim.critpath import build_critpath
from repro.sim.profile import build_profile
from repro.sim.trace import (
    CAT_OP,
    CAT_PHASE,
    CAT_RPC,
    EDGE_DECLARED,
    EDGE_DYNAMIC,
    EDGE_JOIN,
    EDGE_REMOTE,
    SpanIndex,
    TailKeeper,
    Tracer,
    span_to_jsonable,
)
from repro.workloads.mdtest import MdtestWorkload
from repro.workloads.mixed import MixedWorkload
from repro.workloads.namespace import build_namespace
from tests import oracle


def _traced(system_name, workload, **tracer_kw):
    system = build_system(system_name, "quick")
    try:
        tracer = Tracer(**tracer_kw)
        tracer.bind(system.sim)
        system.sim.tracer = tracer
        run_workload(system, workload)
        return tracer
    finally:
        system.shutdown()


def _mkdir_shared():
    return MdtestWorkload("mkdir", mode="shared", items=4, num_clients=8)


class _Processes:
    """Stands in for the simulator: which process the tracer charges."""

    _active_process = 0


def _synthetic(seed, max_spans=120, keeper=None):
    """A seeded random trace over four processes.

    Spans declare parents in other processes, legs opened on an empty
    stack may ``join_to`` such a parent, and nothing forces a spawned
    span to finish first — so a small ring drops parents whose children
    survive.  Whatever is still open at the end stays open.
    """
    rng = random.Random(seed)
    procs = _Processes()
    tracer = Tracer(max_spans=max_spans, keeper=keeper)
    tracer.bind(procs)
    stacks = {proc: [] for proc in range(4)}
    hosts = ("proxy-0", "indexnode-0", "tafdb-0", None)
    occupants = (None, ("mkdir", "storm"), ("objstat", "victim"),
                 ("create", None))
    now = 0.0
    for _ in range(900):
        now += rng.choice((0.0, rng.uniform(0.5, 20.0)))
        procs._active_process = proc = rng.randrange(4)
        stack = stacks[proc]
        roll = rng.random()
        if stack and roll < 0.35:
            tracer.end(stack.pop(), now, ok=rng.random() > 0.1)
        elif roll < 0.65 or not stack:
            others = [s for st in stacks.values() for s in st]
            parent = rng.choice(others) \
                if others and rng.random() < 0.7 else None
            category = CAT_OP if not stack and rng.random() < 0.5 \
                else rng.choice((CAT_PHASE, CAT_RPC, "handler", "txn"))
            span = tracer.begin(rng.choice(("a", "b c", "d;e", "rpc:f")),
                                now, category, parent=parent,
                                host=rng.choice(hosts))
            if not stack and parent is not None and rng.random() < 0.5:
                span.annotate(join_to=parent.span_id)
            if category == CAT_OP:
                span.annotate(tenant=rng.choice(("storm", "victim", None)))
            stack.append(span)
        else:
            us = rng.uniform(0.1, 15.0)
            host = rng.choice(hosts)
            kind = rng.choice(("cpu", "fsync", "wire", "queue"))
            if rng.random() < 0.2:
                tracer.charge_blocked(
                    rng.choice(("raft.flush", "raft.replicate",
                                "raft.queue", "x.wait")),
                    kind, us, host,
                    resource="raft" if kind == "queue" else None,
                    by=rng.choice(occupants))
            elif kind == "queue":
                tracer.charge(kind, us, host,
                              resource=rng.choice(("cpu", "disk", "latch")),
                              by=rng.choice(occupants))
            else:
                tracer.charge(kind, us, host)
    return tracer


def _snapshot(process, spans):
    return {"process": process,
            "spans": [span_to_jsonable(span) for span in spans]}


def _orphans(spans):
    """How many spans link to a parent missing from the set, per kind."""
    index = SpanIndex(spans)
    out = {}
    for span in index.spans:
        edge = index.edge(span)
        if edge is not None and index.parent(span) is None:
            out[edge[0]] = out.get(edge[0], 0) + 1
    return out


def _items(mapping):
    return list(mapping.items())


def assert_obs_folds_match(snapshots):
    new = obs.phase_breakdown(snapshots)
    ref = oracle.ref_phase_breakdown(snapshots)
    assert list(new) == list(ref)
    for op, phases in new.items():
        assert (phases.count, phases.total_latency_us,
                _items(phases.phase_us)) == (
            ref[op].count, ref[op].total_latency_us,
            _items(ref[op].phase_us))
    assert obs.op_tree_stats(snapshots) == \
        oracle.ref_op_tree_stats(snapshots)
    assert obs.cross_process_problems(snapshots) == \
        oracle.ref_cross_process_problems(snapshots)
    for tolerance in (1.0, 0.0):
        assert obs.dyn_self_time_problems(snapshots, tolerance) == \
            oracle.ref_dyn_self_time_problems(snapshots, tolerance)


def assert_folds_match(spans, unattributed=None):
    spans = list(spans)
    index = SpanIndex(spans)

    profile = build_profile(index, unattributed)
    ref_profile = oracle.ref_build_profile(spans, unattributed)
    assert _items(profile.centers) == _items(ref_profile.centers)
    assert _items(profile.stacks) == _items(ref_profile.stacks)
    assert [(frame, fc.spans, fc.self_us)
            for frame, fc in profile.frames.items()] == [
        (frame, fc.spans, fc.self_us)
        for frame, fc in ref_profile.frames.items()]
    assert (profile.total_root_us, profile.total_self_us, profile.ops,
            profile.op_failures) == (
        ref_profile.total_root_us, ref_profile.total_self_us,
        ref_profile.ops, ref_profile.op_failures)

    wanted = {span.span_id for span in spans[::3]}
    for picked in (lambda span: True, lambda span: span.span_id in wanted):
        crit = build_critpath(index, root_where=lambda span: (
            span.category == CAT_OP and picked(span)))
        ref = oracle.ref_build_critpath(spans, root_where=picked)
        assert _items(crit.gated) == _items(ref.gated)
        assert [(root.span_id, us) for root, us in crit.root_paths] == \
            [(root.span_id, us) for root, us in ref.root_paths]
        assert (crit.ops, crit.op_failures, crit.total_us) == \
            (ref.ops, ref.op_failures, ref.total_us)
        ref_blame = oracle.ref_build_blame(ref)
        assert _items(crit.blame.cells) == _items(ref_blame.cells)
        assert crit.blame.total_queue_us == ref_blame.total_queue_us

    assert_obs_folds_match([_snapshot("sim", spans)])


def assert_op_fold_matches(tracer):
    """``tracer.aggregates`` equals the reference fold over its whole
    ring, field for field."""
    assert not tracer.dropped
    aggs = tracer.aggregates
    ref_aggs = oracle.ref_aggregate_ops(tracer.spans)
    assert list(aggs) == list(ref_aggs)
    for op, agg in aggs.items():
        ref_agg = ref_aggs[op]
        assert (agg.count, agg.failures, agg.total_latency_us,
                agg.rpcs_total, _items(agg.phases)) == (
            ref_agg.count, ref_agg.failures, ref_agg.total_latency_us,
            ref_agg.rpcs_total, _items(ref_agg.phases))


class TestSimulatedRuns:
    def test_fanout_legs(self):
        tracer = _traced("mantle", _mkdir_shared())
        index = SpanIndex(tracer.spans)
        assert any(index.edge(span) == (EDGE_JOIN, index.key(parent))
                   for span in index.spans
                   for parent in [index.parent(span)] if parent), \
            "no 2PC fan-out legs traced"
        assert_folds_match(tracer.spans, dict(tracer.unattributed))
        assert_op_fold_matches(tracer)

    @pytest.mark.parametrize("system", ["tectonic", "infinifs", "locofs"])
    def test_mixed_baselines(self, system):
        workload = MixedWorkload(
            build_namespace(num_dirs=30, objects_per_dir=4, seed=5),
            num_clients=6, ops_per_client=15, seed=11)
        tracer = _traced(system, workload)
        assert_folds_match(tracer.spans, dict(tracer.unattributed))
        assert_op_fold_matches(tracer)

    def test_fig15_shared_dirrename_op_fold(self):
        (case,) = [case for case in CASES
                   if case.label == "dirrename-s/infinifs"]
        tracer = run_case(case, "quick", ("tracer",)).tracer
        assert tracer.finished > 30_000
        assert_op_fold_matches(tracer)

    def test_tail_keeper_retained_set(self):
        tracer = _traced("mantle", _mkdir_shared(), max_spans=400,
                         keeper=TailKeeper(budget=600))
        assert tracer.dropped and tracer.keeper.kept_roots
        assert_folds_match(tracer.retained_spans())


class TestSyntheticOrphans:
    @pytest.mark.parametrize("seed", range(12))
    def test_small_ring_orphans(self, seed):
        tracer = _synthetic(seed)
        assert tracer.dropped
        assert_folds_match(tracer.spans, dict(tracer.unattributed))

    def test_every_orphan_kind_occurs(self):
        seen = {}
        for seed in range(12):
            for kind, count in _orphans(_synthetic(seed).spans).items():
                seen[kind] = seen.get(kind, 0) + count
        assert {EDGE_DYNAMIC, EDGE_JOIN, EDGE_DECLARED} <= set(seen)

    @pytest.mark.parametrize("seed", range(4))
    def test_retained_synthetic(self, seed):
        tracer = _synthetic(seed, keeper=TailKeeper(budget=80))
        assert_folds_match(tracer.retained_spans())


@pytest.fixture(scope="module")
def live_snapshots():
    with InProcessCluster(trace=True) as cluster:
        client = LiveClient(cluster.proxy_endpoint, tracer=Tracer())
        with client:
            client.mkdir("/ix")
            for i in range(5):
                client.create(f"/ix/o{i}")
                client.objstat(f"/ix/o{i}")
            client.listdir("/ix")
            client.rename("/ix", "/iy")
            client.dirstat("/iy")
        snapshots = obs.collect_snapshots(cluster.endpoints)
        snapshots.append(client.trace_snapshot())
    return snapshots


class TestLiveSnapshots:
    def test_remote_parents(self, live_snapshots):
        index = SpanIndex(snapshots=live_snapshots)
        assert any(index.edge(span) == (EDGE_REMOTE, index.key(parent))
                   for span in index.spans
                   for parent in [index.parent(span)] if parent)
        assert_obs_folds_match(live_snapshots)

    def test_process_left_out(self, live_snapshots):
        partial = [snap for snap in live_snapshots
                   if snap["process"] != "proxy"]
        assert obs.cross_process_problems(partial)
        assert_obs_folds_match(partial)
