"""Shared plumbing for the DB-backed baseline systems.

All three baselines (and Mantle) keep bulk metadata in the same sharded
store; what differs is *how they resolve paths* and *how they coordinate
directory updates*.  This mixin provides cluster construction, bulk loading
and the level-by-level resolution primitive the DBtable approach uses.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import (
    AlreadyExistsError,
    InvalidPathError,
    NoSuchPathError,
    NotADirectoryError,
    TransactionAbort,
)
from repro.paths import normalize, split_path
from repro.sim.host import CostModel
from repro.sim.stats import PHASE_LOOKUP, OpContext
from repro.tafdb.client import MAX_RETRIES
from repro.tafdb.cluster import TafDBCluster
from repro.tafdb.rows import (
    AttrRecord,
    DirRecord,
    attr_key,
    dirent_key,
    object_record,
)
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
        self._new_dir_id = new_dir_id or (lambda _path: self.ids.next())
        self.tafdb.shard_for(root_id).install(
            attr_key(root_id), AttrMeta(id=root_id, kind=EntryKind.DIRECTORY))

    # -- bulk loading --------------------------------------------------------

    def bulk_load(self, dirs: Iterable[str] = (), objects: Iterable[str] = (),
                  size: int = 0) -> Optional[int]:
        """Install ``dirs`` (parents before children; already-loaded ones are
        skipped) and then ``objects`` of ``size`` bytes, at no simulated cost.

        Rows go straight into their TafDB shard, and each parent's link and
        entry counts fold into its attribute row once, at the end of the
        call (also when an entry raises part-way).  Ids are allocated
        directories first, then objects, in list order.  Returns the id of
        the last entry named, or None when both lists are empty.
        """
        known = self._bulk_dirs
        shard_for = self.tafdb.shard_for
        links: Counter = Counter()  # pid -> directories added under it
        entries: Counter = Counter()  # pid -> entries added under it
        last = None
        try:
            for path in dirs:
                path = normalize(path)
                last = known.get(path)
                if last is not None:
                    continue
                pid, name = self._bulk_parent(path)
                shard = shard_for(pid)
                key = dirent_key(pid, name)
                if key in shard:
                    raise AlreadyExistsError(path)
                last = self._new_dir_id(path)
                shard.install_record(
                    key, DirRecord(1, last, EntryKind.DIRECTORY))
                shard_for(last).install_record(
                    attr_key(last), AttrRecord(1, last, EntryKind.DIRECTORY))
                links[pid] += 1
                entries[pid] += 1
                self._on_bulk_mkdir(pid, name, last, path)
                known[path] = last
            for path in objects:
                path = normalize(path)
                pid, name = self._bulk_parent(path)
                last = self._bulk_object(pid, name, path, size)
                entries[pid] += 1
        finally:
            for pid, count in entries.items():
                shard = shard_for(pid)
                row = shard.read(attr_key(pid))
                row.value.link_count += links[pid]
                row.value.entry_count += count
                shard.install(row.key, row.value, row.version + count)
        return last

    def _bulk_parent(self, path: str) -> Tuple[int, str]:
        """(parent id, name) of normalized ``path``; its parent must have
        been bulk-loaded."""
        parent, _, name = path.rpartition("/")
        if not name:
            raise InvalidPathError(path, "root has no parent")
        pid = self._bulk_dirs.get(parent or "/")
        if pid is None:
            raise NoSuchPathError(path, parent or "/")
        return pid, name

    def _bulk_object(self, pid: int, name: str, path: str, size: int) -> int:
        """Install one object's dirent (attributes inline); returns its id."""
        shard = self.tafdb.shard_for(pid)
        key = dirent_key(pid, name)
        if key in shard:
            raise AlreadyExistsError(path)
        obj_id = self.ids.next()
        shard.install_record(key, object_record(obj_id, size))
        return obj_id

    def _on_bulk_mkdir(self, pid: int, name: str, dir_id: int,
                       path: str) -> None:
        """Hook: mirror a bulk-loaded directory into system-local indexes."""

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
                            entry_delta: int, ctx: OpContext):
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
                if attempt > MAX_RETRIES:
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
