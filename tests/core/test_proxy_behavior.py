"""Behavioural tests for the Mantle proxy layer: delta activation,
follower-read spill, client caching, phase accounting."""

import pytest

from repro.core.config import MantleConfig
from repro.core.service import MantleSystem
from repro.ops import make_op
from repro.sim.stats import (
    PHASE_EXECUTION,
    PHASE_LOOKUP,
    PHASE_LOOP_DETECT,
    OpContext,
)


def build(**overrides):
    config = MantleConfig(num_db_servers=2, num_db_shards=4, num_proxies=2,
                          index_replicas=3, index_cores=8, db_cores=8,
                          proxy_cores=8).copy(**overrides)
    system = MantleSystem(config)
    system.startup()
    return system


def run_op(system, op, *args):
    ctx = OpContext(op)
    result = system.sim.run_process(system.perform(make_op(op, *args), ctx=ctx))
    return result, ctx


class TestDeltaActivation:
    def test_hot_directory_flips_into_delta_mode(self):
        system = build(delta_activation_threshold=3)
        system.bulk_mkdir("/hot")
        hot_id = system._bulk_dirs["/hot"]
        sim = system.sim
        registry = system.tafdb.contention
        assert not registry.is_delta_mode(hot_id, sim.now)

        def client(cid):
            for i in range(10):
                ctx = OpContext("mkdir")
                yield from system.perform(make_op("mkdir", f"/hot/d{cid}_{i}"), ctx=ctx)

        done = sim.all_of([sim.process(client(c)) for c in range(16)])
        sim.run_until(done)
        assert registry.is_delta_mode(hot_id, sim.now)
        assert registry.activations >= 1
        system.shutdown()

    def test_quiet_directory_stays_in_place(self):
        system = build()
        system.bulk_mkdir("/quiet")
        quiet_id = system._bulk_dirs["/quiet"]
        for i in range(5):
            run_op(system, "mkdir", f"/quiet/d{i}")  # serial: no contention
        assert not system.tafdb.contention.is_delta_mode(
            quiet_id, system.sim.now)
        system.shutdown()

    def test_counts_remain_exact_under_contention(self):
        """Delta records must not lose or double-count entries."""
        system = build(delta_activation_threshold=2)
        system.bulk_mkdir("/hot")
        sim = system.sim
        clients, per_client = 12, 6

        def client(cid):
            for i in range(per_client):
                ctx = OpContext("create")
                yield from system.perform(make_op("create", f"/hot/o{cid}_{i}"), ctx=ctx)

        done = sim.all_of([sim.process(client(c)) for c in range(clients)])
        sim.run_until(done)
        stat, _ = run_op(system, "dirstat", "/hot")
        assert stat.entry_count == clients * per_client
        system.shutdown()

    def test_disabled_deltas_still_converge(self):
        system = build(enable_delta_records=False)
        system.bulk_mkdir("/hot")
        sim = system.sim

        def client(cid):
            ctx = OpContext("mkdir")
            yield from system.perform(make_op("mkdir", f"/hot/d{cid}"), ctx=ctx)

        done = sim.all_of([sim.process(client(c)) for c in range(8)])
        sim.run_until(done)
        stat, _ = run_op(system, "dirstat", "/hot")
        assert stat.entry_count == 8
        system.shutdown()


class TestFollowerSpill:
    def test_serial_lookups_stay_on_leader(self):
        system = build()
        system.bulk_mkdir("/w")
        system.bulk_create("/w/obj")
        leader = system.index_group.leader_or_raise()
        before = {nid: svc.lookups_served
                  for nid, svc in system.index_services.items()}
        for _ in range(10):
            run_op(system, "objstat", "/w/obj")
        served = {nid: svc.lookups_served - before[nid]
                  for nid, svc in system.index_services.items()}
        assert served[leader.id] == 10
        assert all(v == 0 for nid, v in served.items() if nid != leader.id)
        system.shutdown()

    def test_concurrent_lookups_spill_to_replicas(self):
        system = build(num_proxies=1)
        system.bulk_mkdir("/w")
        system.bulk_create("/w/obj")
        sim = system.sim
        leader = system.index_group.leader_or_raise()
        before = {nid: svc.lookups_served
                  for nid, svc in system.index_services.items()}

        def client():
            for _ in range(10):
                ctx = OpContext("objstat")
                yield from system.perform(make_op("objstat", "/w/obj"), ctx=ctx)

        done = sim.all_of([sim.process(client()) for _ in range(24)])
        sim.run_until(done)
        served = {nid: svc.lookups_served - before[nid]
                  for nid, svc in system.index_services.items()}
        followers_served = sum(v for nid, v in served.items()
                               if nid != leader.id)
        assert followers_served > 0
        system.shutdown()

    def test_follower_read_disabled_never_spills(self):
        system = build(enable_follower_read=False, num_proxies=1)
        system.bulk_mkdir("/w")
        system.bulk_create("/w/obj")
        sim = system.sim
        leader = system.index_group.leader_or_raise()

        def client():
            for _ in range(5):
                ctx = OpContext("objstat")
                yield from system.perform(make_op("objstat", "/w/obj"), ctx=ctx)

        done = sim.all_of([sim.process(client()) for _ in range(16)])
        sim.run_until(done)
        for nid, svc in system.index_services.items():
            if nid != leader.id:
                assert svc.lookups_served == 0
        system.shutdown()


class TestClientCache:
    def test_cache_hits_for_sibling_objects(self):
        system = build(client_cache_capacity=128, num_proxies=1)
        system.bulk_mkdir("/d")
        for i in range(5):
            system.bulk_create(f"/d/o{i}")
        _, first = run_op(system, "objstat", "/d/o0")
        _, second = run_op(system, "objstat", "/d/o1")  # same parent
        assert second.rpcs < first.rpcs
        system.shutdown()

    def test_cache_invalidated_by_rename(self):
        system = build(client_cache_capacity=128, num_proxies=1)
        system.bulk_mkdir("/d")
        system.bulk_mkdir("/d/sub")
        system.bulk_create("/d/sub/o")
        system.bulk_mkdir("/dst")
        run_op(system, "objstat", "/d/sub/o")  # warm cache
        run_op(system, "dirrename", "/d/sub", "/dst/sub2")
        result, _ = run_op(system, "objstat", "/dst/sub2/o")
        assert result.id > 0
        from repro.errors import NoSuchPathError
        with pytest.raises(NoSuchPathError):
            run_op(system, "objstat", "/d/sub/o")
        system.shutdown()

    def test_cache_disabled_by_default(self):
        system = build()
        assert all(p.client_cache is None for p in system.proxies)
        system.shutdown()


class TestPhaseAccounting:
    def test_lookup_plus_execution_cover_most_of_latency(self, phases_of):
        system = build()
        system.bulk_mkdir("/p")
        system.bulk_create("/p/o")
        agg = phases_of(system, lambda: run_op(system, "objstat", "/p/o"))
        covered = agg.mean_phase_us(PHASE_LOOKUP) + \
            agg.mean_phase_us(PHASE_EXECUTION)
        assert covered == pytest.approx(agg.mean_latency_us, rel=0.05)
        system.shutdown()

    def test_dirrename_has_no_lookup_phase(self, phases_of):
        system = build()
        for p in ("/a", "/a/b", "/dst"):
            system.bulk_mkdir(p)
        agg = phases_of(system, lambda: run_op(system, "dirrename", "/a/b",
                                               "/dst/b"))
        assert PHASE_LOOKUP not in agg.phases
        assert agg.mean_phase_us(PHASE_LOOP_DETECT) > 0
        assert agg.mean_phase_us(PHASE_EXECUTION) > 0
        system.shutdown()

    def test_retries_counted_on_context(self):
        system = build(enable_delta_records=False)
        system.bulk_mkdir("/hot")
        sim = system.sim
        contexts = []

        def client(cid):
            ctx = OpContext("mkdir")
            contexts.append(ctx)
            yield from system.perform(make_op("mkdir", f"/hot/r{cid}"), ctx=ctx)

        done = sim.all_of([sim.process(client(c)) for c in range(10)])
        sim.run_until(done)
        assert sum(c.retries for c in contexts) > 0
        system.shutdown()
