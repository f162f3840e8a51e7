"""Unit tests for the Invalidator (PrefixTree + RemovalList coordination)."""

from repro.indexnode.invalidator import Invalidator
from repro.indexnode.path_cache import TopDirPathCache
from repro.types import Permission


def build(k=2):
    cache = TopDirPathCache(k=k)
    return cache, Invalidator(cache)


def test_try_cache_inserts_and_mirrors_in_tree():
    cache, inv = build()
    v = inv.version
    assert inv.try_cache("/a/b", 5, Permission.ALL, v)
    assert "/a/b" in cache
    assert "/a/b" in inv.prefix_tree


def test_try_cache_rejects_duplicate():
    cache, inv = build()
    v = inv.version
    inv.try_cache("/a/b", 5, Permission.ALL, v)
    assert not inv.try_cache("/a/b", 5, Permission.ALL, inv.version)


def test_try_cache_rejects_on_version_race():
    """§5.1.2: a modification racing the lookup forbids caching."""
    cache, inv = build()
    v = inv.version
    inv.mark_modifying("/elsewhere")  # bumps the version
    assert not inv.try_cache("/a/b", 5, Permission.ALL, v)
    assert "/a/b" not in cache


def test_try_cache_rejects_when_marked():
    cache, inv = build()
    inv.mark_modifying("/a")
    assert not inv.try_cache("/a/b", 5, Permission.ALL, inv.version)


def test_blocking_modification_prefix_match():
    cache, inv = build()
    inv.mark_modifying("/a/b")
    assert inv.blocking_modification("/a/b/c/d") == "/a/b"
    assert inv.blocking_modification("/a/bc") is None
    assert inv.blocking_modification("/z") is None


def test_blocking_modification_exact_match():
    cache, inv = build()
    inv.mark_modifying("/a/b")
    assert inv.blocking_modification("/a/b") == "/a/b"


def test_blocking_modification_ancestor_match():
    cache, inv = build()
    inv.mark_modifying("/a")
    assert inv.blocking_modification("/a/b/c") == "/a"


def test_blocking_modification_empty_list():
    cache, inv = build()
    assert not inv.removal_list
    assert inv.blocking_modification("/anything") is None


def test_mark_adds_one_entry():
    cache, inv = build()
    inv.mark_modifying("/a")
    assert "/a" in inv.removal_list
    assert len(inv.removal_list) == 1


def test_blocking_modification_respects_component_boundary():
    cache, inv = build()
    inv.mark_modifying("/a/b")
    assert inv.blocking_modification("/a/bc") is None
    assert inv.blocking_modification("/a/bc/d") is None


def test_marked_descendant_does_not_block_its_ancestor():
    cache, inv = build()
    inv.mark_modifying("/a/b/c")
    assert inv.blocking_modification("/a/b") is None
    assert inv.try_cache("/a/b", 5, Permission.ALL, inv.version)


def test_mark_always_bumps_version():
    cache, inv = build()
    inv.mark_modifying("/a")
    v = inv.version
    inv.mark_modifying("/a")  # already marked
    assert inv.version == v + 1


def test_repeated_mark_keeps_one_entry():
    cache, inv = build()
    inv.mark_modifying("/a")
    inv.mark_modifying("/a")
    assert sorted(inv.removal_list) == ["/a"]


def test_unmark_bumps_version_only_when_marked():
    cache, inv = build()
    inv.mark_modifying("/a")
    v = inv.version
    inv.unmark("/b")
    assert inv.version == v
    inv.unmark("/a")
    assert inv.version == v + 1
    inv.unmark("/a")
    assert inv.version == v + 1


def test_purge_bumps_version_only_when_list_not_empty():
    cache, inv = build()
    v = inv.version
    inv.purge_pending()
    assert inv.version == v
    inv.mark_modifying("/a")
    inv.purge_pending()
    assert inv.version == v + 2
    assert not inv.removal_list


def test_purge_drains_in_sorted_order():
    cache, inv = build()
    drained = []
    remove_subtree = inv.prefix_tree.remove_subtree

    def recording(path):
        drained.append(path)
        return remove_subtree(path)

    inv.prefix_tree.remove_subtree = recording
    for path in ("/m", "/a/b", "/z", "/a"):
        inv.mark_modifying(path)
    inv.purge_pending()
    assert drained == ["/a", "/a/b", "/m", "/z"]


def test_purge_empties_removal_list():
    cache, inv = build()
    inv.mark_modifying("/b")
    inv.mark_modifying("/a")
    inv.purge_pending()
    assert not inv.removal_list
    assert inv.blocking_modification("/a/x") is None
    assert inv.blocking_modification("/b/x") is None


def test_copy_is_independent_of_its_source():
    cache, inv = build()
    inv.try_cache("/a/b", 5, Permission.ALL, inv.version)
    inv.mark_modifying("/m")
    twin = inv.copy(TopDirPathCache(k=2))
    assert sorted(twin.removal_list) == ["/m"]
    assert twin.version == inv.version
    assert list(twin.prefix_tree.paths()) == ["/a/b"]
    inv.mark_modifying("/n")
    twin.unmark("/m")
    assert sorted(inv.removal_list) == ["/m", "/n"]
    assert not twin.removal_list
    assert twin.version == inv.version  # one bump on each side
    inv.mark_modifying("/a")
    inv.purge_pending()
    assert "/a/b" not in inv.prefix_tree
    assert list(twin.prefix_tree.paths()) == ["/a/b"]


def test_unmark_restores_lookups():
    cache, inv = build()
    inv.mark_modifying("/a")
    inv.unmark("/a")
    assert inv.blocking_modification("/a/b") is None


def test_purge_removes_affected_range_only():
    cache, inv = build()
    for prefix, dir_id in (("/a/b", 5), ("/a/b/c", 6), ("/z", 9)):
        inv.try_cache(prefix, dir_id, Permission.ALL, inv.version)
    inv.mark_modifying("/a/b")
    removed = inv.purge_pending()
    assert removed == 2
    assert "/z" in cache
    assert "/a/b" not in cache and "/a/b/c" not in cache
    # RemovalList drained: lookups under /a/b may use the cache again.
    assert inv.blocking_modification("/a/b/x") is None


def test_purge_empty_is_cheap_noop():
    cache, inv = build()
    assert inv.purge_pending() == 0
    assert inv.purge_rounds == 0


def test_on_rmdir_drops_own_entry_without_marking():
    cache, inv = build()
    inv.try_cache("/a/b", 5, Permission.ALL, inv.version)
    inv.on_rmdir("/a/b")
    assert "/a/b" not in cache
    assert inv.blocking_modification("/a/b") is None  # no RemovalList entry


def test_on_rmdir_uncached_directory_is_noop():
    cache, inv = build()
    inv.on_rmdir("/never/cached")
    assert inv.purged_entries == 0


def test_pending_paths_listing():
    cache, inv = build()
    inv.mark_modifying("/b")
    inv.mark_modifying("/a")
    assert sorted(inv.removal_list) == ["/a", "/b"]
