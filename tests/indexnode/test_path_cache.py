"""Unit tests for TopDirPathCache."""

import pytest

from repro.indexnode.path_cache import TopDirPathCache
from repro.types import Permission


def test_k_validation():
    with pytest.raises(ValueError):
        TopDirPathCache(k=-1)


def test_cacheable_prefix_truncates_k_levels():
    cache = TopDirPathCache(k=3)
    assert cache.prefix_depth(5) == 2  # "/A/C/E/G/H" is served by "/A/C"


def test_shallow_paths_not_cacheable():
    cache = TopDirPathCache(k=3)
    assert cache.prefix_depth(3) == 0
    assert cache.prefix_depth(1) == 0


def test_disabled_cache_never_offers_prefix():
    cache = TopDirPathCache(k=3, enabled=False)
    assert cache.prefix_depth(5) == 0
    cache.insert("/A/B", 7, Permission.ALL)
    assert len(cache) == 0


def test_probe_hit_and_miss_counters():
    cache = TopDirPathCache(k=2)
    cache.insert("/a/b", 5, Permission.ALL)
    assert cache.probe("/a/b").dir_id == 5
    assert cache.probe("/nope") is None
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5


def test_insert_root_ignored():
    cache = TopDirPathCache(k=1)
    cache.insert("/", 1, Permission.ALL)
    assert len(cache) == 0


def test_remove():
    cache = TopDirPathCache(k=2)
    cache.insert("/a/b", 5, Permission.ALL)
    assert cache.remove("/a/b")
    assert not cache.remove("/a/b")
    assert cache.invalidations == 1


def test_clear_counts_invalidations():
    cache = TopDirPathCache(k=2)
    cache.insert("/a", 2, Permission.ALL)
    cache.insert("/b", 3, Permission.ALL)
    cache.clear()
    assert cache.invalidations == 2
    assert len(cache) == 0


def test_memory_accounting_scales_with_entries():
    cache = TopDirPathCache(k=1)
    assert cache.memory_bytes == 0
    cache.insert("/a", 2, Permission.ALL)
    one = cache.memory_bytes
    cache.insert("/a/verylongdirectoryname", 3, Permission.ALL)
    assert cache.memory_bytes > 2 * one


def test_permission_stored_with_entry():
    cache = TopDirPathCache(k=1)
    cache.insert("/a", 2, Permission.READ)
    assert cache.probe("/a").permission == Permission.READ
