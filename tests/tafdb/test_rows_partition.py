"""Unit tests for TafDB row model and partitioning."""

import pytest

from repro.tafdb.partition import Partitioner, pid_hash
from repro.tafdb.rows import (
    AttrDelta,
    Dirent,
    RowKey,
    attr_key,
    delta_key,
    dirent_key,
)
from repro.tafdb.shard import ShardState
from repro.types import AttrMeta, EntryKind


class TestRowKeys:
    def test_dirent_key_is_primary(self):
        key = dirent_key(5, "docs")
        assert key.ts == 0
        assert not key.is_attr
        assert not key.is_delta

    def test_attr_key_is_attr_not_delta(self):
        key = attr_key(5)
        assert key.is_attr
        assert not key.is_delta

    def test_delta_key(self):
        key = delta_key(5, 42)
        assert key.is_attr
        assert key.is_delta

    def test_delta_key_zero_ts_rejected(self):
        with pytest.raises(ValueError):
            delta_key(5, 0)

    def test_keys_order_and_hash(self):
        assert RowKey(1, "a") < RowKey(1, "b") < RowKey(2, "a")
        assert len({RowKey(1, "a"), RowKey(1, "a")}) == 1


class TestValues:
    def test_delta_apply(self):
        attrs = AttrMeta(id=1, kind=EntryKind.DIRECTORY,
                         link_count=2, entry_count=3, size=10, mtime=5.0)
        AttrDelta(link_delta=1, entry_delta=-1, size_delta=4, mtime=9.0).apply_to(attrs)
        assert (attrs.link_count, attrs.entry_count, attrs.size) == (3, 2, 14)
        assert attrs.mtime == 9.0

    def test_delta_does_not_move_mtime_backwards(self):
        attrs = AttrMeta(id=1, kind=EntryKind.DIRECTORY, mtime=10.0)
        AttrDelta(mtime=3.0).apply_to(attrs)
        assert attrs.mtime == 10.0

    def test_reads_and_writers_never_alias_stored_attrs(self):
        shard = ShardState()
        attrs = AttrMeta(id=1, kind=EntryKind.DIRECTORY, entry_count=1)
        shard.install(attr_key(1), attrs)
        shard.install(dirent_key(1, "o"), Dirent(
            id=3, kind=EntryKind.OBJECT,
            attrs=AttrMeta(id=3, kind=EntryKind.OBJECT, size=1)))
        attrs.entry_count = 99
        shard.read(attr_key(1)).value.entry_count = 99
        shard.read(dirent_key(1, "o")).value.attrs.size = 99
        shard.scan_children(1)[0][1].attrs.size = 99
        assert shard.read(attr_key(1)).value.entry_count == 1
        assert shard.read(dirent_key(1, "o")).value.attrs.size == 1

    def test_inline_attrs_describe_the_entry(self):
        with pytest.raises(ValueError):
            Dirent(id=3, kind=EntryKind.OBJECT,
                   attrs=AttrMeta(id=4, kind=EntryKind.OBJECT))

    def test_dirent_is_dir(self):
        d = Dirent(id=2, kind=EntryKind.DIRECTORY)
        o = Dirent(id=3, kind=EntryKind.OBJECT, attrs=AttrMeta(3, EntryKind.OBJECT))
        assert d.is_dir and not o.is_dir


class TestPartitioner:
    def test_deterministic(self):
        p = Partitioner(72, 18)
        assert p.shard_of(12345) == p.shard_of(12345)
        assert pid_hash(1) == pid_hash(1)

    def test_locality_same_pid_same_shard(self):
        p = Partitioner(8, 4)
        # dirent rows, attr row and delta rows of one directory share a pid.
        assert p.shard_of(7) == p.shard_of(7)

    def test_spread_across_shards(self):
        p = Partitioner(16, 4)
        shards = {p.shard_of(pid) for pid in range(1000)}
        assert len(shards) == 16

    def test_server_placement_round_robin(self):
        p = Partitioner(6, 3)
        assert [p.server_of_shard(s) for s in range(6)] == [0, 1, 2, 0, 1, 2]
        assert p.shards_on_server(1) == [1, 4]

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            Partitioner(7, 3)

    def test_bad_shard_id_rejected(self):
        p = Partitioner(4, 2)
        with pytest.raises(ValueError):
            p.server_of_shard(4)

    def test_balance_is_reasonable(self):
        p = Partitioner(8, 4)
        counts = [0] * 8
        for pid in range(1, 8001):
            counts[p.shard_of(pid)] += 1
        assert min(counts) > 0.5 * (8000 / 8)
        assert max(counts) < 2.0 * (8000 / 8)
