"""Integration tests for IndexNodeService: RPC surface, follower reads,
rename preparation and the background Invalidator purge."""

import pytest

from repro.core.config import MantleConfig
from repro.core.service import MantleSystem
from repro.errors import (
    NoSuchPathError,
    RenameLockConflict,
    RenameLoopError,
)
from repro.raft.node import NotLeaderError, Role


def build(**overrides):
    config = MantleConfig(num_db_servers=2, num_db_shards=4, num_proxies=1,
                          index_replicas=3, index_cores=8, db_cores=8,
                          proxy_cores=8).copy(**overrides)
    system = MantleSystem(config)
    system.startup()
    return system


def seed_tree(system):
    for path in ("/a", "/a/b", "/a/b/c", "/dst"):
        system.bulk_mkdir(path)
    system.bulk_create("/a/b/c/obj")


def rpc(system, service, method, *args):
    def body():
        result = yield from system.network.rpc(service, method, *args)
        return result
    return system.sim.run_process(body())


class TestLookupRPC:
    def test_leader_lookup(self):
        system = build()
        seed_tree(system)
        leader = system.index_group.leader_or_raise()
        service = system.index_services[leader.id]
        outcome = rpc(system, service, "lookup", "/a/b/c/obj", "parent")
        assert outcome.final_name == "obj"
        assert outcome.depth == 4
        assert service.lookups_served == 1
        system.shutdown()

    def test_follower_lookup_waits_for_barrier(self):
        system = build()
        seed_tree(system)
        leader = system.index_group.leader_or_raise()
        follower_id = next(nid for nid, node in system.index_group.nodes.items()
                           if node.role is Role.FOLLOWER)
        follower_service = system.index_services[follower_id]
        # Mutate through the leader, then read from the follower: the
        # commitIndex barrier must make the new directory visible.
        result = rpc(system, system.index_services[leader.id], "mutate",
                     ("mkdir", system.root_id, "fresh",
                      system.ids.next(), 7))
        assert result > 0
        outcome = rpc(system, follower_service, "lookup", "/fresh", "dir")
        assert outcome.target_id == result
        system.shutdown()

    def test_lookup_missing_path_raises(self):
        system = build()
        seed_tree(system)
        leader = system.index_group.leader_or_raise()
        with pytest.raises(NoSuchPathError):
            rpc(system, system.index_services[leader.id],
                "lookup", "/nope/deep", "dir")
        system.shutdown()


class TestRenamePrepare:
    def _leader_service(self, system):
        return system.index_services[system.index_group.leader_or_raise().id]

    def test_prepare_locks_source(self):
        system = build()
        seed_tree(system)
        service = self._leader_service(system)
        prep = rpc(system, service, "rename_prepare",
                   "/a/b", "/dst/b2", "uuid-1")
        assert prep.src_name == "b"
        assert prep.dst_name == "b2"
        leader = system.index_group.leader_or_raise()
        meta = leader.state_machine.table.get(prep.src_pid, "b")
        assert meta.locked and meta.lock_owner == "uuid-1"
        system.shutdown()

    def test_prepare_is_idempotent_for_same_uuid(self):
        """§5.3: a proxy retry with the same UUID recognises its own lock."""
        system = build()
        seed_tree(system)
        service = self._leader_service(system)
        first = rpc(system, service, "rename_prepare",
                    "/a/b", "/dst/b2", "uuid-1")
        second = rpc(system, service, "rename_prepare",
                     "/a/b", "/dst/b2", "uuid-1")
        assert first.src_id == second.src_id
        system.shutdown()

    def test_prepare_conflicts_for_other_uuid(self):
        system = build()
        seed_tree(system)
        service = self._leader_service(system)
        rpc(system, service, "rename_prepare", "/a/b", "/dst/b2", "uuid-1")
        with pytest.raises(RenameLockConflict):
            rpc(system, service, "rename_prepare",
                "/a/b", "/dst/other", "uuid-2")
        system.shutdown()

    def test_prepare_detects_loop(self):
        system = build()
        seed_tree(system)
        service = self._leader_service(system)
        with pytest.raises(RenameLoopError):
            rpc(system, service, "rename_prepare",
                "/a", "/a/b/c/a2", "uuid-1")
        system.shutdown()

    def test_prepare_missing_source(self):
        system = build()
        seed_tree(system)
        with pytest.raises(NoSuchPathError):
            rpc(system, self._leader_service(system), "rename_prepare",
                "/ghost", "/dst/g", "uuid-1")
        system.shutdown()

    def test_prepare_conflicts_with_locked_destination_chain(self):
        """Figure 9 step 6: a lock on the destination's ancestry aborts."""
        system = build()
        seed_tree(system)
        system.bulk_mkdir("/dst/inner")
        service = self._leader_service(system)
        # First rename locks /dst-side ancestor /a/b... lock /dst itself by
        # preparing a rename of /dst/inner's parent chain member.
        rpc(system, service, "rename_prepare", "/dst", "/a/dstmoved", "u1")
        with pytest.raises(RenameLockConflict):
            rpc(system, service, "rename_prepare",
                "/a/b", "/dst/inner/b2", "u2")
        system.shutdown()

    def test_prepare_on_follower_raises_not_leader(self):
        system = build()
        seed_tree(system)
        follower_id = next(
            nid for nid, node in system.index_group.nodes.items()
            if node.role is Role.FOLLOWER)
        with pytest.raises(NotLeaderError):
            rpc(system, system.index_services[follower_id],
                "rename_prepare", "/a/b", "/dst/b2", "u1")
        system.shutdown()

    def test_abort_after_conflict_releases_lock(self):
        system = build()
        seed_tree(system)
        service = self._leader_service(system)
        prep = rpc(system, service, "rename_prepare",
                   "/a/b", "/dst/b2", "uuid-1")
        rpc(system, service, "mutate",
            ("rename_abort", prep.src_pid, prep.src_name, "uuid-1",
             prep.src_path))
        leader = system.index_group.leader_or_raise()
        assert not leader.state_machine.table.get(prep.src_pid, "b").locked
        # Another rename may now proceed.
        prep2 = rpc(system, service, "rename_prepare",
                    "/a/b", "/dst/b3", "uuid-2")
        assert prep2.src_id == prep.src_id
        system.shutdown()


class TestInvalidatorPurge:
    def test_background_purge_cleans_marks_on_all_replicas(self):
        system = build()
        # Deep tree so prefixes are cacheable at k=3.
        for path in ("/p", "/p/q", "/p/q/r", "/p/q/r/s", "/p/q/r/s/t",
                     "/dst"):
            system.bulk_mkdir(path)
        leader = system.index_group.leader_or_raise()
        service = system.index_services[leader.id]
        # Warm the leader's cache.
        rpc(system, service, "lookup", "/p/q/r/s/t", "dir")
        assert len(leader.state_machine.cache) > 0
        # Rename an ancestor through the full op path.
        proxy = system.proxies[0]
        from repro.sim.stats import OpContext
        system.sim.run_process(
            proxy.op_dirrename("/p/q", "/dst/q2", OpContext("dirrename")))
        # Let the purge loops run.
        system.sim.run(until=system.sim.now + 5 * 200.0 + 1)
        for node in system.index_group.nodes.values():
            assert not node.state_machine.invalidator.removal_list
        assert not list(
            leader.state_machine.invalidator.prefix_tree.descendants("/p/q"))
        system.shutdown()

    def test_service_stop_halts_purger(self):
        system = build()
        leader = system.index_group.leader_or_raise()
        service = system.index_services[leader.id]
        service.stop()
        assert service._purger is None
        system.shutdown()
