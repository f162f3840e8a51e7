"""The one-pass bulk loader on all four systems: equal to the per-entry
transactional reference, outside the transaction counters, and strict
about duplicate names."""

import gc
import tracemalloc

import pytest

from repro.bench import cluster
from repro.errors import AlreadyExistsError
from repro.experiments.fig18_cache_k import _BushyLookupWorkload
from repro.tafdb.rows import attr_key, dirent_key
from repro.workloads import (
    AudioPreprocessWorkload,
    MdtestWorkload,
    SparkAnalyticsWorkload,
    build_namespace,
    populate,
)
from repro.workloads.namespace import ensure_chain
from tests.baselines.conftest import SYSTEM_NAMES, SyncDriver, build_system
from tests.oracle import transactional_bulk_load


def _load(system):
    """Every setup shape: a generated namespace, mdtest pre-fills in both
    modes, chains, the application workloads and one-entry calls."""
    populate(system, build_namespace(num_dirs=40, objects_per_dir=3,
                                     seed=3, root="/ns"))
    for op, mode in (("objstat", "exclusive"), ("objstat", "shared"),
                     ("dirstat", "exclusive"), ("rmdir", "shared"),
                     ("dirrename", "exclusive"), ("dirrename", "shared")):
        MdtestWorkload(op, mode=mode, depth=5, items=3, num_clients=2,
                       root=f"/md_{op}_{mode}").setup(system)
    ensure_chain(system, "/chain/x", 4)
    ensure_chain(system, "/", 2, prefix="top")
    AudioPreprocessWorkload(num_clients=2, segments=3, depth=6).setup(system)
    SparkAnalyticsWorkload(num_clients=2, depth=5).setup(system)
    _BushyLookupWorkload(num_clients=1, items=1).setup(system)
    system.bulk_mkdir("/ns/late")
    system.bulk_create("/ns/late/obj", size=7)


def _table(table):
    return list(table._by_key.items()), table._by_id


def _state(system):
    """Every shard's rows and per-directory order, every replica's
    tables, the loader's directory map and the next id."""
    shards = {}
    for server in system.tafdb.servers:
        for shard_id, shard in server.shards.items():
            # rows() walks the shard directory by directory, so equal
            # lists mean equal rows, values, versions and per-directory
            # order; dirs_with_deltas is the compactor's order.
            shards[shard_id] = (list(shard.rows()), shard.dirs_with_deltas)
    replicas = []
    if system.name == "mantle":
        replicas = [_table(node.state_machine.table)
                    for node in system.index_group.nodes.values()]
    elif system.name == "locofs":
        replicas = [(_table(node.state_machine.table),
                     node.state_machine.table._children,
                     list(node.state_machine.attrs.items()))
                    for node in system.dir_group.nodes.values()]
    elif system.name == "infinifs":
        replicas = [_table(system.coordinator.mirror)]
    return dict(shards=shards, replicas=replicas,
                bulk_dirs=list(system._bulk_dirs.items()),
                next_id=system.ids.next())


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_bulk_load_equals_transactional_loader(name):
    system = build_system(name)
    _load(system)
    with transactional_bulk_load():
        reference = build_system(name)
        _load(reference)
    assert _state(system) == _state(reference)
    system.shutdown()
    reference.shutdown()


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_bulk_load_is_not_a_transaction(name):
    system = build_system(name)
    spec = build_namespace(num_dirs=30, objects_per_dir=2, seed=5,
                           root="/ns")
    scheduled = system.sim._seq
    populate(system, spec)
    assert system.sim._seq == scheduled  # no simulator event
    assert system.tafdb.total_commits == 0
    assert system.tafdb.total_aborts == 0
    dirs = len(spec.directories)
    # The root's attribute row, every object's dirent and, where
    # directories live in TafDB, each one's dirent and attribute row.
    tafdb_dir_rows = 0 if name == "locofs" else 2 * dirs
    assert system.tafdb.total_rows == 1 + tafdb_dir_rows + len(spec.objects)
    system.shutdown()


def _tafdb_counters(system):
    return (system.tafdb.total_rows, system.tafdb.total_aborts,
            system.tafdb.total_commits,
            [server.abort_reasons for server in system.tafdb.servers])


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_duplicate_bulk_entry_raises_already_exists(name):
    system = build_system(name)
    system.bulk_mkdir("/a")
    system.bulk_create("/a/x")
    system.bulk_mkdir("/a/d")
    before = _tafdb_counters(system)
    for load in (lambda: system.bulk_create("/a/x"),
                 lambda: system.bulk_mkdir("/a/x"),
                 lambda: system.bulk_create("/a/d")):
        with pytest.raises(AlreadyExistsError):
            load()
    assert _tafdb_counters(system) == before
    driver = SyncDriver(system)
    assert driver.run("dirstat", "/a").entry_count == 2
    assert driver.run("objstat", "/a/x").size == 0
    # Entries installed before a duplicate keep their parent counts.
    with pytest.raises(AlreadyExistsError):
        system.bulk_load(["/a/e"], ["/a/y", "/a/x", "/a/z"])
    assert driver.run("dirstat", "/a").entry_count == 4
    assert driver.run("readdir", "/a") == ["d", "e", "x", "y"]
    system.shutdown()


def test_locofs_bulk_mkdir_over_an_object_leaves_dir_service_alone():
    system = build_system("locofs")
    a = system.bulk_mkdir("/a")
    system.bulk_create("/a/x")
    with pytest.raises(AlreadyExistsError):
        system.bulk_mkdir("/a/x")
    assert "/a/x" not in system._bulk_dirs
    for node in system.dir_group.nodes.values():
        assert node.state_machine.table.get(a, "x") is None
        assert node.state_machine.attrs[a].entry_count == 1
    assert system.tafdb.shard_for(a).read(dirent_key(a, "x")) is not None
    assert system.tafdb.shard_for(a).read(attr_key(a)) is None
    system.shutdown()


def test_mantle_replicas_share_bulk_loaded_entries():
    system = build_system("mantle")
    system.bulk_load(["/a", "/a/b"])
    first, *others = [node.state_machine.table
                      for node in system.index_group.nodes.values()]
    assert others
    for key, meta in first._by_key.items():
        for table in others:
            assert table.get(*key) is meta
            assert table._by_id[meta.id] is first._by_id[meta.id]
    system.shutdown()


#: Live bytes per entry a bulk-loaded namespace may keep (tracemalloc).
BYTES_PER_ENTRY = {"mantle": 350, "tectonic": 300}


@pytest.mark.parametrize("name", sorted(BYTES_PER_ENTRY))
def test_bulk_loaded_namespace_bytes_per_entry(name):
    """What a populated namespace keeps live per entry: TafDB records,
    names, ids, per-directory dicts and (Mantle) the IndexNode replicas."""
    spec = build_namespace(num_dirs=2000, objects_per_dir=10, seed=11)
    system = cluster.build_system(name)
    entries = len(spec.directories) + len(spec.objects)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        populate(system, spec)
        gc.collect()
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / entries
    finally:
        tracemalloc.stop()
    system.shutdown()
    assert per_entry <= BYTES_PER_ENTRY[name], per_entry
