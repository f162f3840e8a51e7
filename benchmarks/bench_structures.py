"""Wall-clock micro-benchmarks of the hot data structures.

These measure real Python performance (not simulated time): the IndexNode
serves millions of lookups per second in production, so the per-operation
costs of its structures are worth tracking across changes.
"""

import random

import pytest

from repro.indexnode.index_table import IndexTable
from repro.indexnode.invalidator import Invalidator
from repro.indexnode.path_cache import TopDirPathCache
from repro.structures.lru import LRUCache
from repro.structures.radix_tree import PrefixTree
from repro.types import ROOT_ID, AccessMeta, Permission

_N = 2000


def _chain_table(depth=10, chains=200):
    table = IndexTable()
    next_id = 2
    for chain in range(chains):
        pid = ROOT_ID
        for level in range(depth):
            name = f"c{chain}_l{level}"
            if table.get(pid, name) is None:
                table.insert(AccessMeta(pid=pid, name=name, id=next_id))
                pid = next_id
                next_id += 1
            else:
                pid = table.get(pid, name).id
    return table


@pytest.fixture(scope="module")
def chain_table():
    return _chain_table()


def test_index_table_resolve_depth10(benchmark, chain_table):
    parts = [f"c7_l{level}" for level in range(10)]

    def resolve():
        return chain_table.resolve_dir(parts)

    dir_id, _perm, probes = benchmark(resolve)
    assert probes == 10


def test_index_table_ancestor_chain(benchmark, chain_table):
    deep_id, _perm, _probes = chain_table.resolve_dir(
        [f"c3_l{level}" for level in range(10)])
    chain = benchmark(chain_table.ancestor_chain, deep_id)
    assert chain[-1] == ROOT_ID


def test_path_cache_probe(benchmark):
    cache = TopDirPathCache(k=3)
    for i in range(_N):
        cache.insert(f"/a/b{i}/c", i + 2, Permission.ALL)
    keys = [f"/a/b{i}/c" for i in range(_N)]
    rng = random.Random(1)

    def probe():
        return cache.probe(rng.choice(keys))

    assert benchmark(probe) is not None


def test_prefix_tree_insert_remove(benchmark):
    paths = [f"/x/y{i % 50}/z{i}" for i in range(500)]

    def cycle():
        tree = PrefixTree()
        for path in paths:
            tree.insert(path)
        tree.remove_subtree("/x")
        return tree

    assert len(benchmark(cycle)) == 0


def test_prefix_tree_descendant_scan(benchmark):
    tree = PrefixTree()
    for i in range(_N):
        tree.insert(f"/ns/d{i % 40}/leaf{i}")

    def scan():
        return list(tree.descendants("/ns/d7"))

    assert len(benchmark(scan)) == _N // 40


def test_invalidator_mark_probe_purge(benchmark):
    """One RemovalList cycle at its busiest quick-scale load (66 paths
    marked at once in fig16): mark them, probe a depth-10 path against
    them, purge."""
    inv = Invalidator(TopDirPathCache(k=3))
    marks = [f"/mods/dir{i}" for i in range(66)]
    deep = "/" + "/".join(f"l{level}" for level in range(10))

    def cycle():
        for path in marks:
            inv.mark_modifying(path)
        blocked = inv.blocking_modification(deep)
        inv.purge_pending()
        return blocked

    assert benchmark(cycle) is None
    assert inv.purge_rounds > 0 and not inv.removal_list


def test_lru_cache_churn(benchmark):
    def churn():
        cache = LRUCache(256)
        for i in range(2000):
            cache.put(i % 512, i)
            cache.get((i * 7) % 512)
        return cache.hits

    assert benchmark(churn) > 0
