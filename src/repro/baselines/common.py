"""Shared plumbing for the DB-backed baseline systems.

All three baselines (and Mantle) keep bulk metadata in the same sharded
store; what differs is *how they resolve paths* and *how they coordinate
directory updates*.  This mixin provides cluster construction, bulk loading
and the level-by-level resolution primitive the DBtable approach uses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import (
    AlreadyExistsError,
    NoSuchPathError,
    NotADirectoryError,
    TransactionAbort,
)
from repro.paths import normalize, parent_and_name, split_path
from repro.sim.host import CostModel
from repro.sim.stats import PHASE_LOOKUP, OpContext
from repro.tafdb.cluster import TafDBCluster
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import ROOT_ID, AttrMeta, EntryKind, Permission

_ALL = Permission.ALL


class StorageMixin:
    """TafDB-backed storage, bulk loading and sequential resolution.

    Subclasses must have ``self.sim``, ``self.network``, ``self.costs`` and
    ``self.ids``, and either call :meth:`_init_storage` (a private TafDB
    rooted at ``ROOT_ID``) or build/borrow their own ``self.tafdb`` and call
    :meth:`_init_bulk` with their root id (Mantle's namespaces over a
    shared TafDB).  ``_on_bulk_mkdir`` lets a system mirror new directories
    into its own index (IndexNode replicas, InfiniFS's rename coordinator).
    """

    def _init_storage(self, num_db_servers: int, num_db_shards: int,
                      db_cores: int, costs: CostModel,
                      deltas_enabled: bool = False,
                      new_dir_id: Optional[Callable[[str], int]] = None):
        self.tafdb = TafDBCluster(
            self.sim, self.network, num_servers=num_db_servers,
            num_shards=num_db_shards, cores=db_cores, costs=costs,
            deltas_enabled=deltas_enabled,
            start_compactors=deltas_enabled)
        self._init_bulk(ROOT_ID, new_dir_id)

    def _init_bulk(self, root_id: int,
                   new_dir_id: Optional[Callable[[str], int]] = None):
        """Bulk-loader state for a namespace rooted at ``root_id``; installs
        the root's attribute row in ``self.tafdb``."""
        self._bulk_dirs: Dict[str, int] = {"/": root_id}
        self._bulk_seq = 0
        self._new_dir_id = new_dir_id or (lambda _path: self.ids.next())
        self._bulk_execute(root_id, [WriteIntent(
            attr_key(root_id), "insert",
            AttrMeta(id=root_id, kind=EntryKind.DIRECTORY))])

    # -- bulk loading --------------------------------------------------------

    def _bulk_execute(self, pid: int, intents) -> None:
        shard_id = self.tafdb.partitioner.shard_of(pid)
        server = self.tafdb.servers[
            self.tafdb.partitioner.server_of_shard(shard_id)]
        self._bulk_seq += 1
        server.shard(shard_id).execute(f"bulk-{self._bulk_seq}", intents)

    def _bulk_bump_parent(self, pid: int, link_delta: int, entry_delta: int):
        shard_id = self.tafdb.partitioner.shard_of(pid)
        shard = self.tafdb.servers[
            self.tafdb.partitioner.server_of_shard(shard_id)].shard(shard_id)
        row = shard.read(attr_key(pid))
        if row is None:
            raise NoSuchPathError(f"dir id {pid}")
        attrs = row.value.copy()
        attrs.link_count += link_delta
        attrs.entry_count += entry_delta
        self._bulk_execute(pid, [WriteIntent(
            attr_key(pid), "update", attrs, expect_version=row.version)])

    def _on_bulk_mkdir(self, pid: int, name: str, dir_id: int,
                       path: str) -> None:
        """Hook: mirror a bulk-loaded directory into system-local indexes."""

    def bulk_mkdir(self, path: str) -> int:
        path = normalize(path)
        if path in self._bulk_dirs:
            return self._bulk_dirs[path]
        parent_path, name = parent_and_name(path)
        pid = self._bulk_dirs.get(parent_path)
        if pid is None:
            raise NoSuchPathError(path, parent_path)
        dir_id = self._new_dir_id(path)
        self._bulk_execute(pid, [WriteIntent(
            dirent_key(pid, name), "insert",
            Dirent(id=dir_id, kind=EntryKind.DIRECTORY))])
        self._bulk_execute(dir_id, [WriteIntent(
            attr_key(dir_id), "insert",
            AttrMeta(id=dir_id, kind=EntryKind.DIRECTORY))])
        self._bulk_bump_parent(pid, 1, 1)
        self._on_bulk_mkdir(pid, name, dir_id, path)
        self._bulk_dirs[path] = dir_id
        return dir_id

    def bulk_create(self, path: str, size: int = 0) -> int:
        path = normalize(path)
        parent_path, name = parent_and_name(path)
        pid = self._bulk_dirs.get(parent_path)
        if pid is None:
            raise NoSuchPathError(path, parent_path)
        obj_id = self.ids.next()
        self._bulk_execute(pid, [WriteIntent(
            dirent_key(pid, name), "insert",
            Dirent(id=obj_id, kind=EntryKind.OBJECT,
                   attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                                  size=size)))])
        self._bulk_bump_parent(pid, 0, 1)
        return obj_id

    # -- DBtable sequential resolution (§2.3) ------------------------------------

    def resolve_sequential(self, db, path: str, upto_parent: bool,
                           ctx: OpContext):
        """Level-by-level path traversal: one RPC per component, marked as
        the op's lookup phase.

        This is the multi-RPC resolution of Figure 2 that Mantle's
        single-RPC IndexNode lookup replaces.  Returns (dir_id, final_name,
        permission); ``final_name`` is None when resolving the full path.
        """
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        parts = split_path(path)
        if upto_parent:
            if not parts:
                raise NoSuchPathError(path)
            walk, final = parts[:-1], parts[-1]
        else:
            walk, final = parts, None
        current = ROOT_ID
        perm = Permission.ALL
        for part in walk:
            row = yield from db.read(dirent_key(current, part), ctx=ctx)
            if row is None:
                raise NoSuchPathError(path, part)
            value = row.value
            if not value.is_dir:
                raise NotADirectoryError(path, part)
            if value.permission is not _ALL:  # skip IntFlag.__and__
                perm &= value.permission
            current = value.id
        ctx.end(PHASE_LOOKUP, self.sim.now)
        return current, final, perm

    # -- parent attribute read-modify-write with retries ------------------------------

    def update_parent_attrs(self, db, parent_id: int, link_delta: int,
                            entry_delta: int, ctx: OpContext,
                            max_retries: int = 64):
        """The contended in-place parent update of the DBtable approach.

        Optimistic read-modify-write with version expectation; conflicts
        abort and retry with backoff — the mechanism behind Figure 4b.
        """
        attempt = 0
        while True:
            row = yield from db.read(attr_key(parent_id), ctx=ctx)
            if row is None:
                raise NoSuchPathError(f"dir id {parent_id}")
            attrs = row.value.copy()
            attrs.link_count += link_delta
            attrs.entry_count += entry_delta
            attrs.mtime = self.sim.now
            try:
                yield from db.execute_txn([WriteIntent(
                    attr_key(parent_id), "update", attrs,
                    expect_version=row.version)], ctx=ctx)
                return
            except TransactionAbort:
                ctx.retries += 1
                attempt += 1
                if attempt > max_retries:
                    raise
                yield self.sim.timeout(db.backoff_us(attempt))

    def insert_with_conflict_check(self, db, key, value, path: str,
                                   ctx: OpContext):
        """Single-row insert where EEXIST is a semantic error."""
        try:
            yield from db.execute_txn([WriteIntent(key, "insert", value)],
                                      ctx=ctx)
        except TransactionAbort as exc:
            if exc.reason == "exists":
                raise AlreadyExistsError(path) from exc
            raise
