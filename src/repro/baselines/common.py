"""Shared plumbing for the TafDB-backed systems.

All three baselines (and Mantle) keep bulk metadata in the same sharded
store; what differs is *how they resolve paths* and *how they coordinate
directory updates*.  :class:`StorageMixin` loads that store in bulk (Mantle
uses it too); :class:`TafDBBaseline` builds a baseline's private cluster and
proxy fleet and holds the op bodies Tectonic and InfiniFS share.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.baselines.base import IdAllocator, MetadataSystem
from repro.errors import (
    AlreadyExistsError,
    InvalidPathError,
    IsADirectoryError,
    NoSuchPathError,
    NotADirectoryError,
    NotEmptyError,
    TransactionAbort,
)
from repro.paths import normalize, split_path
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, OpContext
from repro.structures.lru import LRUCache
from repro.tafdb.client import MAX_RETRIES, update_attrs
from repro.tafdb.cluster import TafDBCluster
from repro.tafdb.rows import (
    AttrRecord,
    Dirent,
    DirRecord,
    attr_key,
    dirent_key,
    object_record,
)
from repro.tafdb.shard import WriteIntent
from repro.types import ROOT_ID, AttrMeta, EntryKind, Permission, make_stat


def split_walk(path: str, upto_parent: bool):
    """``(walk, final)``: the components of ``path`` a lookup resolves and,
    when ``upto_parent``, the last one it leaves to the op (else None)."""
    parts = split_path(path)
    if not upto_parent:
        return parts, None
    if not parts:
        raise NoSuchPathError(path)
    return parts[:-1], parts[-1]


class StorageMixin:
    """Bulk loading over TafDB.

    Subclasses must have ``self.tafdb`` and ``self.ids`` and call
    :meth:`_init_bulk` with their root id (:class:`TafDBBaseline` does, for
    a private TafDB rooted at ``ROOT_ID``; Mantle's namespaces share one
    TafDB).  Loader hooks: ``_bulk_install_dir`` installs a directory (its
    TafDB dirent and attribute row, then ``_on_bulk_mkdir`` mirrors it into
    a system's own index), ``_bulk_object`` an object's dirent, and
    ``_bulk_fold`` adds a call's counts to a parent's attribute row; LocoFS
    overrides them with its directory-server replicas and ``bump``.
    """

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

        Entries go straight into their store, and each parent's link and
        entry counts fold once, at the end of the call (also when an entry
        raises part-way).  Ids are allocated directories first, then
        objects, in list order.  Returns the id of the last entry named, or
        None when both lists are empty.
        """
        known = self._bulk_dirs
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
                last = self._bulk_install_dir(pid, name, path)
                links[pid] += 1
                entries[pid] += 1
                known[path] = last
            for path in objects:
                path = normalize(path)
                pid, name = self._bulk_parent(path)
                last = self._bulk_object(pid, name, path, size)
                entries[pid] += 1
        finally:
            for pid, count in entries.items():
                self._bulk_fold(pid, links[pid], count)
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

    def _bulk_install_dir(self, pid: int, name: str, path: str) -> int:
        """Install one directory's rows; returns its id."""
        shard = self.tafdb.shard_for(pid)
        key = dirent_key(pid, name)
        if key in shard:
            raise AlreadyExistsError(path)
        dir_id = self._new_dir_id(path)
        shard.install_record(key, DirRecord(1, dir_id, EntryKind.DIRECTORY))
        self.tafdb.shard_for(dir_id).install_record(
            attr_key(dir_id), AttrRecord(1, dir_id, EntryKind.DIRECTORY))
        self._on_bulk_mkdir(pid, name, dir_id, path)
        return dir_id

    def _bulk_object(self, pid: int, name: str, path: str, size: int) -> int:
        """Install one object's dirent (attributes inline); returns its id."""
        shard = self.tafdb.shard_for(pid)
        key = dirent_key(pid, name)
        if key in shard:
            raise AlreadyExistsError(path)
        obj_id = self.ids.next()
        shard.install_record(key, object_record(obj_id, size))
        return obj_id

    def _bulk_fold(self, pid: int, links: int, entries: int) -> None:
        """Add ``links`` and ``entries`` to ``pid``'s attribute row."""
        shard = self.tafdb.shard_for(pid)
        row = shard.read(attr_key(pid))
        row.value.link_count += links
        row.value.entry_count += entries
        shard.install(row.key, row.value, row.version + entries)

    def _on_bulk_mkdir(self, pid: int, name: str, dir_id: int,
                       path: str) -> None:
        """Hook: mirror a bulk-loaded directory into system-local indexes."""


class Proxy(NamedTuple):
    """A stateless proxy; ``cache`` is InfiniFS's AM-Cache, if any."""

    host: Host
    db: object
    cache: Optional[LRUCache]


class TafDBBaseline(StorageMixin, MetadataSystem):
    """A baseline over a private TafDB, run by stateless proxies.

    The DBtable design (§2.3) the paper re-implements its baselines on
    (§6.1): each op runs on a round-robin :class:`Proxy` that resolves the
    path and then reads and writes TafDB rows itself.  Every op body opens
    with :meth:`_step`.  The bodies here are Tectonic's and InfiniFS's,
    which differ in three hooks:

    * ``_lookup(host, db, cache, path, upto_parent, ctx)`` only resolves:
      ``(dir_id, final_name, mask)`` for the parent of ``path``
      (``final_name`` its last component) or, without ``upto_parent``, for
      ``path`` itself (``final_name`` None), ``mask`` intersected along it;
    * ``_update_parent(db, pid, link_delta, entry_delta, ctx)``: adds a
      child's change to its parent's link and entry counts;
    * ``_on_dir_change(path, command, ctx)``: tells system-local indexes
      of a directory mutation (``("mkdir", pid, name, dir_id, mask)``,
      ``("rmdir", pid, name)``, ``("setperm", pid, name, mask)``).

    A hook that delegates returns the callee's generator rather than
    wrapping it in another frame.  ``mkdir``, ``objstat`` and ``dirrename`` are each
    system's own.  LocoFS keeps its directories off TafDB and overrides
    every op; it shares the construction and :meth:`delete_object_row`.

    A subclass calls ``__init__``, builds its own servers, then calls
    :meth:`_init_proxies`: TafDB client ids follow that order.
    """

    def __init__(self, sim: Optional[Simulator],
                 network: Optional[Network], costs: Optional[CostModel],
                 num_db_servers: int, num_db_shards: int, db_cores: int,
                 new_dir_id: Optional[Callable[[str], int]] = None):
        self.costs = costs or CostModel()
        sim = sim or Simulator()
        network = network or Network(sim, one_way_us=self.costs.net_one_way_us)
        super().__init__(sim, network)
        self.ids = IdAllocator()
        self.tafdb = TafDBCluster(
            sim, network, num_servers=num_db_servers,
            num_shards=num_db_shards, cores=db_cores, costs=self.costs,
            deltas_enabled=False, start_compactors=False)
        self._init_bulk(ROOT_ID, new_dir_id)

    def _init_proxies(self, count: int, cores: int,
                      cache_capacity: int = 0) -> None:
        """``count`` proxies, each with its own TafDB client and, given a
        capacity, an AM-Cache."""
        self.proxies: List[Proxy] = []
        for i in range(count):
            host = Host(self.sim, f"{self.name}-proxy-{i}", cores=cores)
            cache = LRUCache(cache_capacity) if cache_capacity > 0 else None
            self.proxies.append(Proxy(host, self.tafdb.client(), cache))
        self._proxy_rr = 0

    def _proxy(self):
        """The next proxy, round-robin, with its per-op overhead charged."""
        self._proxy_rr += 1
        proxy = self.proxies[self._proxy_rr % len(self.proxies)]
        yield from proxy.host.work(self.costs.proxy_overhead_us)
        return proxy

    def shutdown(self) -> None:
        self.tafdb.stop_compactors()

    def _step(self, path: str, upto_parent: bool, ctx: OpContext,
              write: bool = False, proxy: Optional[Proxy] = None):
        """Every op's prologue: a charged proxy (or the first step's, for a
        second path), ``_lookup`` as the lookup phase, then the path
        permission rule.  Returns ``(proxy, dir_id, final_name)``."""
        if proxy is None:
            proxy = yield from self._proxy()
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        dir_id, final, permission = yield from self._lookup(
            *proxy, path, upto_parent, ctx)
        ctx.end(PHASE_LOOKUP, self.sim.now)
        permission.check_path(path, write)
        return proxy, dir_id, final

    def _on_dir_change(self, path: str, command: Tuple, ctx: OpContext):
        return ()

    # -- row helpers -----------------------------------------------------------------

    def insert_with_conflict_check(self, db, key, value, path: str,
                                   ctx: OpContext):
        """Single-row insert where EEXIST is a semantic error.  Any other
        abort (the row's lock held by a racing transaction) is contention:
        retried with backoff, at most ``MAX_RETRIES`` times."""
        attempt = 0
        while True:
            try:
                yield from db.execute_txn([WriteIntent(key, "insert", value)],
                                          ctx=ctx)
                return
            except TransactionAbort as exc:
                if exc.reason == "exists":
                    raise AlreadyExistsError(path) from exc
                ctx.retries += 1
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise
                yield from db.runtime.sleep(db.backoff_us(attempt))

    def delete_object_row(self, db, pid: int, name: str, path: str,
                          ctx: OpContext):
        """Delete object ``name``'s dirent under ``pid``; returns its id."""
        key = dirent_key(pid, name)
        row = yield from db.read(key, ctx=ctx)
        if row is None:
            raise NoSuchPathError(path, name)
        if row.value.is_dir:
            raise IsADirectoryError(path)
        try:
            yield from db.execute_txn([WriteIntent(
                key, "delete", expect_version=row.version)], ctx=ctx)
        except TransactionAbort as exc:
            if exc.reason == "missing":
                raise NoSuchPathError(path) from exc
            raise
        return row.value.id

    # -- object operations -----------------------------------------------------------

    def op_create(self, path: str, ctx: OpContext):
        proxy, pid, name = yield from self._step(path, True, ctx, write=True)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        obj_id = self.ids.next()
        now = self.sim.now
        yield from self.insert_with_conflict_check(
            proxy.db, dirent_key(pid, name),
            Dirent(id=obj_id, kind=EntryKind.OBJECT,
                   attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                                  ctime=now, mtime=now)),
            path, ctx)
        yield from self._update_parent(proxy.db, pid, 0, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return obj_id

    def op_delete(self, path: str, ctx: OpContext):
        proxy, pid, name = yield from self._step(path, True, ctx, write=True)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        obj_id = yield from self.delete_object_row(proxy.db, pid, name, path,
                                                   ctx)
        yield from self._update_parent(proxy.db, pid, 0, -1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return obj_id

    # -- directory operations --------------------------------------------------------

    def op_dirstat(self, path: str, ctx: OpContext):
        proxy, dir_id, _none = yield from self._step(path, False, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        attrs = yield from proxy.db.read_dir_attrs(dir_id, ctx=ctx)
        if attrs is None:
            raise NoSuchPathError(path)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)

    def op_readdir(self, path: str, ctx: OpContext):
        proxy, dir_id, _none = yield from self._step(path, False, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        page = yield from proxy.db.scan_children(dir_id, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return [name for name, _ in page]

    def op_rmdir(self, path: str, ctx: OpContext):
        proxy, pid, name = yield from self._step(path, True, ctx, write=True)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
        key = dirent_key(pid, name)
        row = yield from db.read(key, ctx=ctx)
        if row is None:
            raise NoSuchPathError(path, name)
        if not row.value.is_dir:
            raise NotADirectoryError(path, name)
        dir_id = row.value.id
        non_empty = yield from db.has_children(dir_id, ctx=ctx)
        if non_empty:
            raise NotEmptyError(path)
        yield from db.execute_txn([WriteIntent(
            key, "delete", expect_version=row.version)], ctx=ctx)
        yield from db.execute_txn([WriteIntent(
            attr_key(dir_id), "delete")], ctx=ctx)
        yield from self._update_parent(db, pid, -1, -1, ctx)
        yield from self._on_dir_change(path, ("rmdir", pid, name), ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return dir_id

    def op_setattr(self, path: str, permission: Permission, ctx: OpContext):
        """Set the mask in the attribute row and in the dirent lookups
        read; gated, like Mantle's, on traversing the parent only."""
        proxy, pid, name = yield from self._step(path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
        key = dirent_key(pid, name)
        row = yield from db.read(key, ctx=ctx)
        if row is None or not row.value.is_dir:
            raise NoSuchPathError(path, name)
        attrs = yield from update_attrs(db, row.value.id, 0, 0, ctx,
                                        permission)
        yield from db.execute_txn([WriteIntent(
            key, "update", dataclasses.replace(row.value,
                                               permission=permission),
            expect_version=row.version)], ctx=ctx)
        yield from self._on_dir_change(
            path, ("setperm", pid, name, int(permission)), ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)
