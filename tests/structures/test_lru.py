"""Unit tests for LRUCache (AM-Cache substrate)."""

import pytest

from repro.structures.lru import LRUCache


def test_capacity_validated():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_put_get_roundtrip():
    c = LRUCache(4)
    c.put("a", 1)
    assert c.get("a") == 1
    assert c.hits == 1
    assert c.misses == 0


def test_miss_counts_and_default():
    c = LRUCache(4)
    assert c.get("missing", "dflt") == "dflt"
    assert c.misses == 1


def test_eviction_order_is_lru():
    c = LRUCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")  # touch 'a' so 'b' is the LRU victim
    evicted = c.put("c", 3)
    assert evicted == ("b", 2)
    assert "a" in c and "c" in c and "b" not in c
    assert c.evictions == 1


def test_update_moves_to_front_without_eviction():
    c = LRUCache(2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.put("a", 10) is None
    evicted = c.put("c", 3)
    assert evicted == ("b", 2)
    assert c.get("a") == 10


def test_invalidate():
    c = LRUCache(2)
    c.put("a", 1)
    assert c.invalidate("a")
    assert not c.invalidate("a")
    assert len(c) == 0


def test_invalidate_where_prefix():
    c = LRUCache(8)
    for path in ("/a/1", "/a/2", "/b/1"):
        c.put(path, path)
    dropped = c.invalidate_where(lambda k: k.startswith("/a/"))
    assert dropped == 2
    assert len(c) == 1
    assert "/b/1" in c


def test_hit_rate():
    c = LRUCache(2)
    c.put("a", 1)
    c.get("a")
    c.get("x")
    assert c.hit_rate == 0.5
    empty = LRUCache(2)
    assert empty.hit_rate == 0.0


def test_clear_and_items():
    c = LRUCache(4)
    c.put("a", 1)
    c.put("b", 2)
    assert list(c.items()) == [("a", 1), ("b", 2)]
    c.clear()
    assert len(c) == 0
