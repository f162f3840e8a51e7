"""InfiniFS internals: id prediction, speculative fallback, coordinator."""

import pytest

from repro.baselines.infinifs import InfiniFSSystem, predict_dir_id
from repro.errors import (AlreadyExistsError, NoSuchPathError,
                          RenameLockConflict, RenameLoopError)
from repro.sim.stats import OpContext
from repro.tafdb.rows import ATTR_SENTINEL, attr_key
from repro.types import ROOT_ID
from repro.ops import make_op


def build(**kw):
    params = dict(num_db_servers=2, num_db_shards=4, num_proxies=2,
                  db_cores=8, proxy_cores=8)
    params.update(kw)
    system = InfiniFSSystem(**params)
    system.startup()
    return system


def run_op(system, op, *args):
    ctx = OpContext(op)
    result = system.sim.run_process(system.perform(make_op(op, *args), ctx=ctx))
    return result, ctx


class TestIdPrediction:
    def test_root_maps_to_root_id(self):
        assert predict_dir_id("/") == ROOT_ID

    def test_deterministic_and_distinct(self):
        assert predict_dir_id("/a/b") == predict_dir_id("/a/b")
        assert predict_dir_id("/a/b") != predict_dir_id("/a/c")

    def test_bulk_dirs_use_predicted_ids(self):
        system = build()
        dir_id = system.bulk_mkdir("/pred")
        assert dir_id == predict_dir_id("/pred")
        system.shutdown()

    def test_mkdir_uses_predicted_id(self):
        system = build()
        system.bulk_mkdir("/p")
        result, _ = run_op(system, "mkdir", "/p/q")
        assert result == predict_dir_id("/p/q")
        system.shutdown()


def orphan_attr_rows(system):
    """Ids of directory attribute rows no dirent names (the root aside)."""
    attrs, named = set(), {ROOT_ID}
    for server in system.tafdb.servers:
        for shard in server.shards.values():
            for key, value, _version in shard.rows():
                if key.name == ATTR_SENTINEL:
                    if key.ts == 0:
                        attrs.add(key.pid)
                elif value.is_dir:
                    named.add(value.id)
    return attrs - named


class TestFailedMkdir:
    def test_mkdir_over_an_object_leaves_no_attribute_row(self):
        system = build()
        run_op(system, "create", "/o")
        with pytest.raises(AlreadyExistsError):
            run_op(system, "mkdir", "/o")
        dir_id = predict_dir_id("/o")
        assert system.tafdb.shard_for(dir_id).read(attr_key(dir_id)) is None
        assert orphan_attr_rows(system) == set()
        # The predicted id is free again.
        run_op(system, "delete", "/o")
        result, _ = run_op(system, "mkdir", "/o")
        assert result == dir_id
        system.shutdown()

    # The create starts while the mkdir is between its two transactions:
    # it commits first, or still holds the dirent's lock when Txn 2 comes,
    # which Txn 2 waits out with retries before it sees the name taken.
    @pytest.mark.parametrize("create_at_us, min_retries", [
        (200.0, 0), (480.0, 1)], ids=["committed", "locked"])
    def test_mkdir_losing_to_a_create_on_an_unpredicted_id(
            self, create_at_us, min_retries):
        """A directory renamed away keeps the predicted id, so the mkdir
        takes an unpredicted one; losing the name to a create still
        leaves no attribute row behind."""
        system = build()
        system.bulk_mkdir("/d")
        run_op(system, "dirrename", "/d", "/e")
        sim = system.sim
        outcomes, ctxs = {}, {}

        def run(op, delay_us, *args):
            yield sim.timeout(delay_us)
            ctxs[op] = OpContext(op)
            try:
                outcomes[op] = yield from system.perform(
                    make_op(op, *args), ctx=ctxs[op])
            except AlreadyExistsError as exc:
                outcomes[op] = exc

        mkdir = sim.process(run("mkdir", 0.0, "/d"))
        create = sim.process(run("create", create_at_us, "/d"))
        sim.run_until(sim.all_of([mkdir, create]))
        assert isinstance(outcomes["mkdir"], AlreadyExistsError)
        assert ctxs["mkdir"].retries >= min_retries
        assert isinstance(outcomes["create"], int)
        assert orphan_attr_rows(system) == set()
        system.shutdown()


class TestSpeculativeResolution:
    def test_fresh_paths_resolve_in_one_parallel_round(self):
        system = build()
        for i in range(1, 6):
            system.bulk_mkdir("/" + "/".join(f"l{j}" for j in range(1, i + 1)))
        system.bulk_create("/l1/l2/l3/l4/l5/obj")
        _, ctx = run_op(system, "objstat", "/l1/l2/l3/l4/l5/obj")
        # All level reads issued concurrently: latency far below 6 serial
        # RTTs (600 us+), despite 6+ RPCs on the wire.
        assert ctx.rpcs >= 6
        assert ctx.latency < 450
        system.shutdown()

    def test_renamed_subtree_breaks_predictions_but_resolves(self):
        """After a rename, descendants keep creation-time ids != the hash of
        their new path: speculation misses and the sequential fallback must
        kick in (correct, slower)."""
        system = build()
        for path in ("/a", "/a/b", "/a/b/c", "/dst"):
            system.bulk_mkdir(path)
        system.bulk_create("/a/b/c/obj")
        run_op(system, "dirrename", "/a/b", "/dst/b2")
        fresh, ctx_renamed = run_op(system, "objstat", "/dst/b2/c/obj")
        assert fresh.id > 0
        # And equivalent-depth un-renamed paths still speculate fine.
        system.bulk_mkdir("/x")
        system.bulk_mkdir("/x/y")
        system.bulk_mkdir("/x/y/z")
        system.bulk_create("/x/y/z/obj")
        _, ctx_clean = run_op(system, "objstat", "/x/y/z/obj")
        assert ctx_renamed.latency > ctx_clean.latency
        system.shutdown()


class TestCoordinator:
    def test_mirror_tracks_mkdirs(self):
        system = build()
        system.bulk_mkdir("/m")
        result, _ = run_op(system, "mkdir", "/m/n")
        pid = predict_dir_id("/m")
        assert system.coordinator.mirror.get(pid, "n").id == result
        system.shutdown()

    def test_loop_detection_through_mirror(self):
        system = build()
        system.bulk_mkdir("/a")
        system.bulk_mkdir("/a/b")
        with pytest.raises(RenameLoopError):
            run_op(system, "dirrename", "/a", "/a/b/a2")
        system.shutdown()

    def test_rename_lock_conflicts(self):
        system = build()
        for path in ("/a", "/a/b", "/d1", "/d2"):
            system.bulk_mkdir(path)
        sim = system.sim

        def prepare_only(owner):
            result = yield from system.network.rpc(
                system.coordinator, "rename_prepare", "/a/b", "/d1/b", owner)
            return result

        sim.run_process(prepare_only("u1"))
        with pytest.raises(RenameLockConflict):
            sim.run_process(prepare_only("u2"))
        # Same owner re-prepares fine (§5.3-style idempotence).
        sim.run_process(prepare_only("u1"))
        system.shutdown()

    def test_lock_released_after_finish(self):
        system = build()
        for path in ("/a", "/a/b", "/d1"):
            system.bulk_mkdir(path)
        run_op(system, "dirrename", "/a/b", "/d1/b")
        assert system.coordinator.locks == {}
        system.shutdown()


class TestAMCache:
    def test_cache_accelerates_repeated_lookups(self):
        # One proxy, so repeated lookups share one AM-Cache instance.
        system = build(am_cache_capacity=256, num_proxies=1)
        chain = "/c1/c2/c3/c4/c5"
        for i in range(1, 6):
            system.bulk_mkdir("/" + "/".join(f"c{j}" for j in range(1, i + 1)))
        system.bulk_create(chain + "/obj")
        _, cold = run_op(system, "objstat", chain + "/obj")
        _, warm = run_op(system, "objstat", chain + "/obj")
        assert warm.rpcs < cold.rpcs
        system.shutdown()

    def test_stale_cache_entry_recovers_after_rename(self):
        system = build(am_cache_capacity=256)
        for path in ("/a", "/a/b", "/a/b/c", "/dst"):
            system.bulk_mkdir(path)
        system.bulk_create("/a/b/c/obj")
        run_op(system, "objstat", "/a/b/c/obj")  # warm the cache
        run_op(system, "dirrename", "/a/b", "/dst/b2")
        result, _ = run_op(system, "objstat", "/dst/b2/c/obj")
        assert result.id > 0
        with pytest.raises(NoSuchPathError):
            run_op(system, "objstat", "/a/b/c/obj")
        system.shutdown()
