"""Unit tests for the IndexNode state machine: lookup workflow + apply."""

import pytest

from repro.errors import InvalidPathError, NoSuchPathError
from repro.indexnode.state import IndexNodeState
from repro.types import ROOT_ID, AccessMeta, Permission


def build_state(k=2, cache_enabled=True, depth=5):
    """Chain /d1/d2/.../dN with ids 2..N+1."""
    state = IndexNodeState(cache_k=k, cache_enabled=cache_enabled)
    pid = ROOT_ID
    for level in range(1, depth + 1):
        dir_id = level + 1
        state.table.insert(AccessMeta(pid=pid, name=f"d{level}", id=dir_id))
        pid = dir_id
    return state


class TestLookup:
    def test_parent_mode_resolves_parent(self):
        state = build_state()
        out = state.lookup("/d1/d2/d3/obj.bin", want="parent")
        assert out.target_id == 4  # id of /d1/d2/d3
        assert out.final_name == "obj.bin"
        assert out.depth == 4

    def test_dir_mode_resolves_full_path(self):
        state = build_state()
        out = state.lookup("/d1/d2/d3", want="dir")
        assert out.target_id == 4
        assert out.final_name is None

    def test_root_dir_lookup(self):
        state = build_state()
        out = state.lookup("/", want="dir")
        assert out.target_id == ROOT_ID
        assert out.index_probes == 0

    def test_parent_of_root_rejected(self):
        with pytest.raises(InvalidPathError):
            build_state().lookup("/", want="parent")

    def test_unknown_want_rejected(self):
        with pytest.raises(ValueError):
            build_state().lookup("/a", want="everything")

    def test_missing_component_raises(self):
        state = build_state()
        with pytest.raises(NoSuchPathError):
            state.lookup("/d1/ghost/d3", want="dir")

    def test_first_lookup_populates_cache(self):
        state = build_state(k=2)
        out1 = state.lookup("/d1/d2/d3/d4/d5", want="dir")
        assert not out1.cache_hit
        assert out1.index_probes == 5
        assert "/d1/d2/d3" in state.cache

    def test_second_lookup_hits_cache_and_probes_less(self):
        state = build_state(k=2)
        state.lookup("/d1/d2/d3/d4/d5", want="dir")
        out2 = state.lookup("/d1/d2/d3/d4/d5", want="dir")
        assert out2.cache_hit
        assert out2.index_probes == 2  # only the final k levels
        assert out2.target_id == 6

    def test_cache_disabled_always_full_resolution(self):
        state = build_state(k=2, cache_enabled=False)
        state.lookup("/d1/d2/d3/d4/d5", want="dir")
        out = state.lookup("/d1/d2/d3/d4/d5", want="dir")
        assert not out.cache_hit
        assert out.index_probes == 5

    def test_blocked_lookup_bypasses_cache(self):
        state = build_state(k=2)
        state.lookup("/d1/d2/d3/d4/d5", want="dir")  # warm the cache
        state.invalidator.mark_modifying("/d1/d2")
        out = state.lookup("/d1/d2/d3/d4/d5", want="dir")
        assert out.bypassed_cache
        assert not out.cache_hit
        assert out.index_probes == 5  # full IndexTable traversal

    def test_shared_prefix_across_siblings(self):
        state = build_state(k=1, depth=3)
        state.table.insert(AccessMeta(pid=3, name="sib", id=99))  # /d1/d2/sib
        state.lookup("/d1/d2/d3", want="dir")
        out = state.lookup("/d1/d2/sib", want="dir")
        assert out.cache_hit  # both share prefix /d1/d2

    def test_parent_mode_shallow_path_has_no_prefix(self):
        state = build_state(k=3)
        out = state.lookup("/d1/obj", want="parent")
        assert out.cache_probes == 0
        assert out.target_id == 2

    def test_permission_aggregation_through_cache(self):
        state = IndexNodeState(cache_k=1)
        state.table.insert(AccessMeta(
            pid=ROOT_ID, name="a", id=2,
            permission=Permission.READ | Permission.EXECUTE))
        state.table.insert(AccessMeta(pid=2, name="b", id=3))
        state.lookup("/a/b", want="dir")
        out = state.lookup("/a/b", want="dir")
        assert out.cache_hit
        assert out.permission == Permission.READ | Permission.EXECUTE


class TestApply:
    def test_mkdir_then_lookup(self):
        state = build_state(depth=1)
        result = state.apply(("mkdir", 2, "new", 50, int(Permission.ALL)))
        assert result == ("ok", 50)
        assert state.lookup("/d1/new", want="dir").target_id == 50

    def test_mkdir_idempotent_retry(self):
        state = build_state(depth=1)
        state.apply(("mkdir", 2, "new", 50, int(Permission.ALL)))
        assert state.apply(("mkdir", 2, "new", 50, int(Permission.ALL))) == ("ok", 50)

    def test_mkdir_conflict_different_id(self):
        state = build_state(depth=1)
        state.apply(("mkdir", 2, "new", 50, int(Permission.ALL)))
        assert state.apply(("mkdir", 2, "new", 51, int(Permission.ALL)))[0] == "exists"

    def test_rmdir(self):
        state = build_state(depth=2)
        assert state.apply(("rmdir", 2, "d2", "/d1/d2")) == ("ok", 3)
        with pytest.raises(NoSuchPathError):
            state.lookup("/d1/d2", want="dir")

    def test_rmdir_missing(self):
        state = build_state(depth=1)
        assert state.apply(("rmdir", 2, "ghost", "/d1/ghost"))[0] == "missing"

    def test_rename_lock_then_commit(self):
        state = build_state(depth=3)
        state.table.insert(AccessMeta(pid=ROOT_ID, name="dst", id=90))
        assert state.apply(("rename_lock", 3, "d3", "u1", "/d1/d2/d3"))[0] == "ok"
        assert state.table.get(3, "d3").locked
        # Lookups under the locked subtree bypass the cache.
        assert state.lookup("/d1/d2/d3", want="dir").bypassed_cache
        assert state.apply(("rename_commit", 3, "d3", 90, "moved"))[0] == "ok"
        meta = state.table.get(90, "moved")
        assert meta.id == 4 and not meta.locked
        assert state.lookup("/dst/moved", want="dir").target_id == 4

    def test_rename_lock_conflict(self):
        state = build_state(depth=2)
        state.apply(("rename_lock", 2, "d2", "u1", "/d1/d2"))
        assert state.apply(("rename_lock", 2, "d2", "u2", "/d1/d2")) == \
            ("locked", "u1")

    def test_rename_lock_idempotent_same_owner(self):
        state = build_state(depth=2)
        state.apply(("rename_lock", 2, "d2", "u1", "/d1/d2"))
        assert state.apply(("rename_lock", 2, "d2", "u1", "/d1/d2"))[0] == "ok"

    def test_rename_abort_unlocks_and_unmarks(self):
        state = build_state(depth=2)
        state.apply(("rename_lock", 2, "d2", "u1", "/d1/d2"))
        state.apply(("rename_abort", 2, "d2", "u1", "/d1/d2"))
        assert not state.table.get(2, "d2").locked
        assert not state.lookup("/d1/d2", want="dir").bypassed_cache

    def test_rename_commit_invalidates_stale_cache_after_purge(self):
        state = build_state(k=1, depth=4)
        state.lookup("/d1/d2/d3/d4", want="dir")
        assert "/d1/d2/d3" in state.cache
        state.table.insert(AccessMeta(pid=ROOT_ID, name="dst", id=90))
        state.apply(("rename_lock", 2, "d2", "u1", "/d1/d2"))
        state.apply(("rename_commit", 2, "d2", 90, "d2"))
        # Before the purge, lookups bypass the cache (RemovalList mark).
        assert state.lookup("/dst/d2/d3/d4", want="dir").target_id == 5
        state.invalidator.purge_pending()
        assert "/d1/d2/d3" not in state.cache
        with pytest.raises(NoSuchPathError):
            state.lookup("/d1/d2/d3/d4", want="dir")

    def test_setperm_updates_and_marks(self):
        state = build_state(depth=2)
        result = state.apply(("setperm", 2, "d2", int(Permission.READ), "/d1/d2"))
        assert result[0] == "ok"
        assert state.table.get(2, "d2").permission == Permission.READ
        assert state.lookup("/d1/d2", want="dir").bypassed_cache

    def test_unknown_command(self):
        assert build_state().apply(("frobnicate", 1))[0] == "err"

    def test_applied_counter(self):
        state = build_state(depth=1)
        state.apply(("mkdir", 2, "x", 50, int(Permission.ALL)))
        state.apply(("rmdir", 2, "x", "/d1/x"))
        assert state.applied_commands == 2


def fingerprint(state):
    """Everything a snapshot must carry, as plain comparable values."""
    table, cache, inv = state.table, state.cache, state.invalidator
    return {
        "rows": sorted(table.entries(), key=lambda m: m.id),
        "by_id": dict(table._by_id),
        "probes": (table.resolve_calls, table.probe_count),
        "cache": dict(cache._entries),
        "cache_stats": (cache.k, cache.enabled, cache.hits, cache.misses,
                        cache.inserts, cache.invalidations),
        "prefix_tree": (list(inv.prefix_tree.paths()), len(inv.prefix_tree)),
        "removal_list": (sorted(inv.removal_list), inv.version),
        "purges": (inv.purged_entries, inv.purge_rounds),
        "applied": state.applied_commands,
    }


class TestSnapshot:
    """snapshot()/restore() copy containers and share the frozen rows:
    neither side may see the other's later mutations."""

    def _busy_state(self):
        state = build_state(k=1, depth=5)
        state.table.insert(AccessMeta(pid=ROOT_ID, name="dst", id=90))
        state.lookup("/d1/d2/d3/d4", want="dir")         # cache fill
        state.apply(("setperm", 3, "d3", int(Permission.READ),
                     "/d1/d2/d3"))                       # pending removal
        state.apply(("rename_lock", 5, "d5", "u1", "/d1/d2/d3/d4/d5"))
        return state

    def _mutate(self, state):
        state.apply(("mkdir", 2, "new", 50, int(Permission.ALL)))
        state.apply(("rename_commit", 5, "d5", 90, "moved"))
        state.apply(("setperm", 2, "d2", int(Permission.READ), "/d1/d2"))
        state.apply(("rmdir", 2, "new", "/d1/new"))
        state.invalidator.purge_pending()
        state.lookup("/dst/moved/x", want="parent")      # cache fill
        state.apply(("rename_lock", 1, "dst", "u2", "/dst"))

    def test_live_mutations_leave_the_blob_unchanged(self):
        state = self._busy_state()
        at_snapshot = fingerprint(state)
        blob = state.snapshot()
        self._mutate(state)
        assert fingerprint(state) != at_snapshot
        replica = IndexNodeState(cache_k=1)
        replica.restore(blob)
        assert fingerprint(replica) == at_snapshot
        assert replica.invalidator.cache is replica.cache

    def test_restored_replica_does_not_write_through_to_the_blob(self):
        state = self._busy_state()
        at_snapshot = fingerprint(state)
        blob = state.snapshot()
        first = IndexNodeState(cache_k=1)
        first.restore(blob)
        self._mutate(first)
        second = IndexNodeState(cache_k=1)
        second.restore(blob)  # the leader ships one blob to many replicas
        assert fingerprint(second) == at_snapshot
        assert fingerprint(state) == at_snapshot

    def test_restored_replica_behaves_like_the_original(self):
        state = self._busy_state()
        replica = IndexNodeState(cache_k=1)
        replica.restore(state.snapshot())
        for each in (state, replica):
            self._mutate(each)
        assert fingerprint(replica) == fingerprint(state)
        assert replica.lookup("/dst/moved", want="dir") == \
            state.lookup("/dst/moved", want="dir")
