"""Tests for multi-namespace deployments (§4 / §7)."""

import pytest

from repro.core.config import MantleConfig
from repro.core.multitenant import MantleDeployment
from repro.errors import NoSuchPathError
from repro.sim.host import CostModel
from repro.sim.stats import OpContext
from repro.ops import make_op


def tiny_config(**overrides):
    return MantleConfig(num_db_servers=2, num_db_shards=4, num_proxies=2,
                        index_replicas=3, index_cores=8, db_cores=8,
                        proxy_cores=8).copy(**overrides)


@pytest.fixture()
def deployment():
    dep = MantleDeployment(tiny_config())
    yield dep
    dep.shutdown()


def run_op(system, op, *args):
    ctx = OpContext(op)
    return system.sim.run_process(system.perform(make_op(op, *args), ctx=ctx))


class TestNamespaceIsolation:
    def test_same_paths_do_not_collide(self, deployment):
        ns_a = deployment.create_namespace("tenant-a")
        ns_b = deployment.create_namespace("tenant-b")
        id_a = run_op(ns_a, "mkdir", "/data")
        id_b = run_op(ns_b, "mkdir", "/data")
        assert id_a != id_b
        run_op(ns_a, "create", "/data/only-in-a.bin")
        assert run_op(ns_a, "objstat", "/data/only-in-a.bin").id > 0
        with pytest.raises(NoSuchPathError):
            run_op(ns_b, "objstat", "/data/only-in-a.bin")

    def test_distinct_root_ids(self, deployment):
        ns_a = deployment.create_namespace("a")
        ns_b = deployment.create_namespace("b")
        assert ns_a.root_id != ns_b.root_id

    def test_duplicate_namespace_rejected(self, deployment):
        deployment.create_namespace("dup")
        with pytest.raises(ValueError):
            deployment.create_namespace("dup")

    def test_a_namespace_cannot_carry_its_own_costs(self, deployment):
        """One cost model per deployment: the shared TafDB and network
        were built from it, so a namespace cannot bring another."""
        with pytest.raises(TypeError):
            deployment.create_namespace("x", costs=CostModel())
        assert "x" not in deployment.namespaces

    def test_unknown_namespace_rejected(self, deployment):
        with pytest.raises(KeyError):
            deployment.namespace("ghost")


class TestSharedTafDB:
    def test_rows_of_all_namespaces_share_one_cluster(self, deployment):
        ns_a = deployment.create_namespace("a")
        ns_b = deployment.create_namespace("b")
        before = deployment.total_metadata_rows
        run_op(ns_a, "mkdir", "/x")
        run_op(ns_b, "mkdir", "/y")
        # Both namespaces' new rows landed in the single shared TafDB.
        assert deployment.total_metadata_rows >= before + 4

    def test_namespace_sizes(self, deployment):
        ns_a = deployment.create_namespace("a")
        deployment.create_namespace("b")
        run_op(ns_a, "mkdir", "/one")
        run_op(ns_a, "mkdir", "/two")
        sizes = deployment.namespace_sizes()
        assert sizes["a"] == 2
        assert sizes["b"] == 0

    def test_ids_unique_across_namespaces(self, deployment):
        ns_a = deployment.create_namespace("a")
        ns_b = deployment.create_namespace("b")
        ids = set()
        for ns in (ns_a, ns_b):
            for i in range(5):
                ids.add(run_op(ns, "mkdir", f"/d{i}"))
        assert len(ids) == 10


class TestColocation:
    def test_colocated_namespaces_share_hosts(self):
        dep = MantleDeployment(tiny_config(), shared_index_pool=3)
        try:
            ns_a = dep.create_namespace("a", colocate=True)
            ns_b = dep.create_namespace("b", colocate=True)
            hosts_a = {n.host for n in ns_a.index_group.nodes.values()}
            hosts_b = {n.host for n in ns_b.index_group.nodes.values()}
            assert hosts_a == hosts_b  # 3 replicas on a 3-host pool
            # Both namespaces still function correctly.
            run_op(ns_a, "mkdir", "/a")
            run_op(ns_b, "mkdir", "/b")
            assert run_op(ns_a, "dirstat", "/a").is_dir
        finally:
            dep.shutdown()

    def test_colocate_without_pool_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.create_namespace("x", colocate=True)

    def test_colocated_namespaces_contend_for_cpu(self):
        """§7.2: co-location trades isolation for utilisation — load on one
        namespace inflates the other's latency."""
        def run_burst(with_neighbor_load):
            dep = MantleDeployment(tiny_config(index_cores=1),
                                   shared_index_pool=3)
            try:
                ns_a = dep.create_namespace("a", colocate=True)
                ns_b = dep.create_namespace("b", colocate=True)
                ns_a.bulk_mkdir("/w")
                ns_a.bulk_create("/w/obj")
                ns_b.bulk_mkdir("/w")
                ns_b.bulk_create("/w/obj")
                sim = dep.sim
                latencies = []

                def victim():
                    for _ in range(20):
                        ctx = OpContext("objstat")
                        yield from ns_a.perform(make_op("objstat", "/w/obj"), ctx=ctx)
                        latencies.append(ctx.latency)

                def neighbor():
                    for _ in range(200):
                        ctx = OpContext("objstat")
                        yield from ns_b.perform(make_op("objstat", "/w/obj"), ctx=ctx)

                procs = [sim.process(victim())]
                if with_neighbor_load:
                    # Enough neighbour clients that ns_b's lookups spill
                    # over every replica, loading all pool hosts.
                    procs += [sim.process(neighbor()) for _ in range(24)]
                done = sim.all_of(procs)
                sim.run_until(done)
                return sum(latencies) / len(latencies)
            finally:
                dep.shutdown()

        quiet = run_burst(False)
        noisy = run_burst(True)
        assert noisy > quiet


class TestDedicatedVsShared:
    def test_mixed_placement(self):
        dep = MantleDeployment(tiny_config(), shared_index_pool=2)
        try:
            small = dep.create_namespace("small", colocate=True,
                                         index_replicas=1)
            big = dep.create_namespace("big", colocate=False)
            pool_hosts = set(dep._pool)
            small_hosts = {n.host for n in small.index_group.nodes.values()}
            big_hosts = {n.host for n in big.index_group.nodes.values()}
            assert small_hosts <= pool_hosts
            assert not (big_hosts & pool_hosts)
        finally:
            dep.shutdown()
