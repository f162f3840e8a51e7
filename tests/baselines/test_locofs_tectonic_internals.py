"""LocoFS and Tectonic internals: tiering quirks and relaxed consistency."""

import pytest

from repro.baselines.locofs import LocoFSSystem
from repro.baselines.tectonic import TectonicSystem
from repro.errors import AlreadyExistsError, NoSuchPathError
from repro.raft.node import Role
from repro.sim.stats import OpContext
from repro.ops import make_op


def build_locofs(**kw):
    params = dict(num_db_servers=2, num_db_shards=4, num_proxies=2,
                  db_cores=8, proxy_cores=8)
    params.update(kw)
    system = LocoFSSystem(**params)
    system.startup()
    return system


def build_tectonic(**kw):
    params = dict(num_db_servers=2, num_db_shards=4, num_proxies=2,
                  db_cores=8, proxy_cores=8)
    params.update(kw)
    return TectonicSystem(**params)


def run_op(system, op, *args):
    ctx = OpContext(op)
    result = system.sim.run_process(system.perform(make_op(op, *args), ctx=ctx))
    return result, ctx


class TestLocoFSTiering:
    def test_directory_metadata_only_at_dir_server(self):
        system = build_locofs()
        system.bulk_mkdir("/onlydirs")
        from repro.tafdb.rows import dirent_key
        from repro.types import ROOT_ID
        shard_id = system.tafdb.partitioner.shard_of(ROOT_ID)
        server = system.tafdb.servers[
            system.tafdb.partitioner.server_of_shard(shard_id)]
        # No dirent row for the directory in the object store.
        assert server.shard(shard_id).read(
            dirent_key(ROOT_ID, "onlydirs")) is None
        leader = system.dir_group.leader_or_raise()
        assert leader.state_machine.table.get(ROOT_ID, "onlydirs") is not None
        system.shutdown()

    def test_mkdir_cannot_shadow_object(self):
        system = build_locofs()
        system.bulk_mkdir("/t")
        run_op(system, "create", "/t/name")
        with pytest.raises(AlreadyExistsError):
            run_op(system, "mkdir", "/t/name")
        system.shutdown()

    def test_rename_cannot_land_on_object(self):
        system = build_locofs()
        for p in ("/t", "/t/dir"):
            system.bulk_mkdir(p)
        run_op(system, "create", "/t/occupied")
        with pytest.raises(AlreadyExistsError):
            run_op(system, "dirrename", "/t/dir", "/t/occupied")
        system.shutdown()

    def test_failed_create_rolls_back_parent_counter(self):
        system = build_locofs()
        system.bulk_mkdir("/t")
        run_op(system, "create", "/t/o")
        count_before, _ = run_op(system, "dirstat", "/t")
        with pytest.raises(AlreadyExistsError):
            run_op(system, "create", "/t/o")  # duplicate
        count_after, _ = run_op(system, "dirstat", "/t")
        assert count_after.entry_count == count_before.entry_count
        system.shutdown()

    def test_dir_mutations_are_raft_committed(self):
        system = build_locofs()
        system.bulk_mkdir("/r")
        leader = system.dir_group.leader_or_raise()
        before = leader.proposals
        run_op(system, "mkdir", "/r/one")
        run_op(system, "dirrename", "/r/one", "/r/two")
        run_op(system, "rmdir", "/r/two")
        assert leader.proposals == before + 3
        # All replicas converge.
        system.sim.run(until=system.sim.now + 100_000)
        tables = [len(n.state_machine.table)
                  for n in system.dir_group.nodes.values()]
        assert len(set(tables)) == 1
        system.shutdown()

    def test_object_counter_updates_skip_raft(self):
        """LocoFS relaxes durability for object counters: creates bump the
        leader's state without a Raft round (followers lag until the next
        dir mutation replays... they never see it — the tiering trade)."""
        system = build_locofs()
        system.bulk_mkdir("/rc")
        leader = system.dir_group.leader_or_raise()
        before = leader.proposals
        run_op(system, "create", "/rc/o1")
        run_op(system, "create", "/rc/o2")
        assert leader.proposals == before  # no proposals for object ops
        stat, _ = run_op(system, "dirstat", "/rc")
        assert stat.entry_count == 2
        system.shutdown()

    def test_followers_do_not_serve(self):
        system = build_locofs()
        system.bulk_mkdir("/f")
        follower_id = next(nid for nid, n in system.dir_group.nodes.items()
                           if n.role is Role.FOLLOWER)
        follower_service = system.dir_services[follower_id]
        from repro.raft.node import NotLeaderError

        def body():
            yield from system.network.rpc(
                follower_service, "resolve", "/f", True)

        with pytest.raises(NotLeaderError):
            system.sim.run_process(body())
        system.shutdown()


class TestTectonicRelaxedConsistency:
    def test_sequential_resolution_one_rpc_per_level(self):
        system = build_tectonic()
        path = "/t1/t2/t3/t4"
        for i in range(1, 5):
            system.bulk_mkdir("/" + "/".join(f"t{j}" for j in range(1, i + 1)))
        system.bulk_create(path + "/obj")
        _, ctx = run_op(system, "objstat", path + "/obj")
        assert ctx.rpcs == 5  # 4 lookup levels + the final dirent read
        system.shutdown()

    def test_mkdir_uses_separate_transactions(self):
        """Relaxed consistency (§6.1): one mkdir commits as three separate
        single-shard transactions (dirent, attribute row, parent update)
        instead of one distributed transaction."""
        system = build_tectonic()
        system.bulk_mkdir("/w")
        commits_before = system.tafdb.total_commits
        run_op(system, "mkdir", "/w/fresh")
        assert system.tafdb.total_commits - commits_before == 3

    def test_dirent_visible_before_parent_update(self):
        """The relaxed window is real: commit the first transaction by hand
        and the child is already listable while the parent count is stale."""
        system = build_tectonic()
        system.bulk_mkdir("/w")
        sim = system.sim
        _host, db, _cache = system.proxies[0]
        from repro.tafdb.rows import Dirent, attr_key, dirent_key
        from repro.tafdb.shard import WriteIntent
        from repro.types import AttrMeta, EntryKind
        pid = system._bulk_dirs["/w"]

        def half_mkdir():
            # Exactly what op_mkdir's first two transactions do.
            yield from db.execute_txn([WriteIntent(
                dirent_key(pid, "fresh"), "insert",
                Dirent(id=999, kind=EntryKind.DIRECTORY))])
            yield from db.execute_txn([WriteIntent(
                attr_key(999), "insert",
                AttrMeta(id=999, kind=EntryKind.DIRECTORY))])

        sim.run_process(half_mkdir())
        listing, _ = run_op(system, "readdir", "/w")
        parent, _ = run_op(system, "dirstat", "/w")
        assert "fresh" in listing          # child already visible...
        assert parent.entry_count == 0     # ...parent counter not yet bumped
        system.shutdown()

    def test_no_loop_detection_rpc_cost(self, phases_of):
        system = build_tectonic()
        for p in ("/a", "/a/b", "/dst"):
            system.bulk_mkdir(p)
        agg = phases_of(system, lambda: run_op(system, "dirrename", "/a/b",
                                               "/dst/b2"))
        assert "loop_detect" not in agg.phases
        assert agg.mean_phase_us("execution") > 0
        system.shutdown()

    def test_rename_loop_still_rejected_client_side(self):
        system = build_tectonic()
        system.bulk_mkdir("/a")
        system.bulk_mkdir("/a/b")
        from repro.errors import RenameLoopError
        with pytest.raises(RenameLoopError):
            run_op(system, "dirrename", "/a", "/a/b/a2")
        system.shutdown()

    def test_missing_source_rename(self):
        system = build_tectonic()
        system.bulk_mkdir("/dst")
        with pytest.raises(NoSuchPathError):
            run_op(system, "dirrename", "/ghost", "/dst/g")
        system.shutdown()
