"""Tests for the zero-cost bulk loaders used by benchmark pre-fill."""

import pytest

from repro.bench.audit import check_consistency
from repro.core.config import MantleConfig
from repro.core.service import MantleSystem
from repro.errors import NoSuchPathError
from repro.sim.stats import OpContext
from repro.workloads.namespace import build_namespace, populate
from repro.ops import make_op


def build():
    system = MantleSystem(MantleConfig(
        num_db_servers=2, num_db_shards=4, num_proxies=1,
        index_replicas=3, index_cores=8, db_cores=8, proxy_cores=8))
    system.startup()
    return system


def run_op(system, op, *args):
    ctx = OpContext(op)
    return system.sim.run_process(system.perform(make_op(op, *args), ctx=ctx))


class TestBulkLoaders:
    def test_bulk_load_consumes_no_simulated_time(self):
        system = build()
        before = system.sim.now
        for i in range(30):
            system.bulk_mkdir(f"/b{i}")
            system.bulk_create(f"/b{i}/obj")
        assert system.sim.now == before
        system.shutdown()

    def test_bulk_state_is_fully_operational(self):
        system = build()
        system.bulk_mkdir("/pre")
        system.bulk_create("/pre/obj", size=2048)
        assert run_op(system, "objstat", "/pre/obj").size == 2048
        assert run_op(system, "dirstat", "/pre").entry_count == 1
        # Mutations interleave cleanly with bulk-loaded entries.
        run_op(system, "create", "/pre/live")
        assert run_op(system, "dirstat", "/pre").entry_count == 2
        system.shutdown()

    def test_bulk_mkdir_idempotent(self):
        system = build()
        first = system.bulk_mkdir("/same")
        second = system.bulk_mkdir("/same")
        assert first == second
        system.shutdown()

    def test_bulk_requires_existing_parent(self):
        system = build()
        with pytest.raises(NoSuchPathError):
            system.bulk_mkdir("/missing/child")
        with pytest.raises(NoSuchPathError):
            system.bulk_create("/missing/obj")
        system.shutdown()

    def test_bulk_load_passes_cross_layer_audit(self):
        system = build()
        populate(system, build_namespace(num_dirs=60, objects_per_dir=3,
                                         seed=8, root="/audit"))
        system.sim.run(until=system.sim.now + 200_000)
        assert check_consistency(system) == []
        system.shutdown()

    def test_bulk_counts_match_dirstat_after_populate(self):
        system = build()
        spec = build_namespace(num_dirs=25, objects_per_dir=4, seed=4,
                               root="/cnt")
        populate(system, spec)
        # Spot-check a leaf directory's entry count through the live path.
        leaf = min(o.rsplit("/", 1)[0] for o in spec.objects)
        expected = sum(1 for o in spec.objects
                       if o.rsplit("/", 1)[0] == leaf)
        expected += sum(1 for d in spec.directories
                        if d != leaf and d.rsplit("/", 1)[0] == leaf)
        assert run_op(system, "dirstat", leaf).entry_count == expected
        system.shutdown()


class TestSharedTafDBBulkLoading:
    def test_namespaces_bulk_load_into_every_replica(self):
        from repro.core.multitenant import MantleDeployment

        deployment = MantleDeployment(MantleConfig(
            num_db_servers=2, num_db_shards=4, num_proxies=1,
            index_replicas=3, index_cores=8, db_cores=8, proxy_cores=8))
        namespaces = [deployment.create_namespace(name)
                      for name in ("alpha", "beta")]
        for system in namespaces:
            assert system.root_id != 1  # a non-default namespace root
            ids = [system.bulk_mkdir("/a"), system.bulk_mkdir("/a/b")]
            system.bulk_create("/a/b/obj")
            for node in system.index_group.nodes.values():
                table = node.state_machine.table
                assert table.get(system.root_id, "a").id == ids[0]
                assert table.get(ids[0], "b").id == ids[1]
        deployment.sim.run(until=deployment.sim.now + 200_000)
        for system in namespaces:
            assert check_consistency(system) == []
            assert run_op(system, "objstat", "/a/b/obj").id > 0
        deployment.shutdown()
