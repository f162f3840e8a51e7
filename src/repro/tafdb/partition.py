"""Shard placement: pid-hash partitioning with directory locality.

The DBtable design (§2.3) partitions the metadata table by ``pid`` so that
the entries under one directory land on one shard.  We use a deterministic
integer hash (Fibonacci multiplicative) rather than Python's randomized
``hash()`` so simulations are reproducible across runs.
"""

from __future__ import annotations

from typing import List

_FIB = 11400714819323198485  # 2^64 / golden ratio


def pid_hash(pid: int) -> int:
    """Deterministic 64-bit mix of a parent-directory id."""
    return ((pid * _FIB) & 0xFFFFFFFFFFFFFFFF) >> 16


class Partitioner:
    """Maps pids to shard ids and shard ids to server slots."""

    def __init__(self, num_shards: int, num_servers: int):
        if num_shards < 1 or num_servers < 1:
            raise ValueError("need at least one shard and one server")
        if num_shards % num_servers != 0:
            raise ValueError(
                f"{num_shards} shards do not divide evenly over {num_servers} servers"
            )
        self.num_shards = num_shards
        self.num_servers = num_servers

    def shard_of(self, pid: int) -> int:
        return pid_hash(pid) % self.num_shards

    def server_of_shard(self, shard_id: int) -> int:
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard {shard_id} out of range")
        return shard_id % self.num_servers

    def shards_on_server(self, server_id: int) -> List[int]:
        return [s for s in range(self.num_shards) if s % self.num_servers == server_id]
