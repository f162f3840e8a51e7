"""Tests for Lazy-Hybrid permission aggregation and enforcement (§5.1.1)."""

import pytest

from repro import MantleClient, MantleConfig
from repro.errors import PermissionDeniedError
from repro.types import Permission
from repro.ops import make_op


def small(**overrides):
    return MantleClient(MantleConfig(
        num_db_servers=2, num_db_shards=4, num_proxies=2,
        index_replicas=3, index_cores=8, db_cores=8,
        proxy_cores=8).copy(**overrides))


class TestEnforcement:
    def test_read_only_directory_rejects_creates(self):
        with small() as client:
            client.mkdir("/ro")
            client.setattr("/ro", Permission.READ | Permission.EXECUTE)
            with pytest.raises(PermissionDeniedError):
                client.create("/ro/new.bin")

    def test_no_execute_blocks_traversal(self):
        with small() as client:
            client.mkdir("/locked/inner", parents=True)
            client.create("/locked/inner/obj")
            client.setattr("/locked", Permission.READ)  # EXECUTE revoked
            with pytest.raises(PermissionDeniedError):
                client.objstat("/locked/inner/obj")
            with pytest.raises(PermissionDeniedError):
                client.listdir("/locked/inner")

    def test_ancestor_restriction_propagates(self):
        """The Lazy-Hybrid intersection carries an ancestor's restriction
        to every descendant path."""
        with small() as client:
            client.mkdir("/a/b/c", parents=True)
            client.setattr("/a", Permission.READ | Permission.EXECUTE)
            with pytest.raises(PermissionDeniedError):
                client.mkdir("/a/b/c/d")  # needs WRITE along the path

    def test_restoring_permission_reopens_subtree(self):
        with small() as client:
            client.mkdir("/flip")
            client.setattr("/flip", Permission.READ)
            with pytest.raises(PermissionDeniedError):
                client.create("/flip/x")
            # setattr itself operates on /flip (root-aggregated: allowed).
            client.setattr("/flip", Permission.ALL)
            assert client.create("/flip/x") > 0

    def test_rename_requires_write(self):
        with small() as client:
            client.mkdir("/src/victim", parents=True)
            client.mkdir("/dst")
            client.setattr("/dst", Permission.READ | Permission.EXECUTE)
            with pytest.raises(PermissionDeniedError):
                client.rename("/src/victim", "/dst/moved")
            # The failed rename must have released its lock.
            client.mkdir("/dst2")
            assert client.rename("/src/victim", "/dst2/moved") > 0


class TestAggregationThroughCaches:
    def test_cached_prefix_carries_permission(self):
        """Permission changes invalidate TopDirPathCache entries so a
        cached prefix never grants stale access."""
        with small() as client:
            client.mkdir("/deep/a/b/c/d", parents=True)
            client.create("/deep/a/b/c/d/obj")
            # Warm the prefix cache with the permissive resolution.
            for _ in range(3):
                client.objstat("/deep/a/b/c/d/obj")
            client.setattr("/deep", Permission.READ)
            # Allow the Invalidator's background purge to run.
            client.system.sim.run(until=client.system.sim.now + 2_000)
            with pytest.raises(PermissionDeniedError):
                client.objstat("/deep/a/b/c/d/obj")

    def test_follower_replicas_enforce_too(self):
        with small() as client:
            client.mkdir("/f")
            client.create("/f/obj")
            client.setattr("/f", Permission.READ)
            client.system.sim.run(until=client.system.sim.now + 100_000)
            # Drive enough concurrent lookups that some spill to followers.
            sim = client.system.sim
            denied = {"count": 0}

            def prober():
                from repro.sim.stats import OpContext
                for _ in range(5):
                    ctx = OpContext("objstat")
                    try:
                        yield from client.system.perform(make_op(
                            "objstat", "/f/obj"), ctx=ctx)
                    except PermissionDeniedError:
                        denied["count"] += 1

            done = sim.all_of([sim.process(prober()) for _ in range(12)])
            sim.run_until(done)
            assert denied["count"] == 60  # every probe rejected
