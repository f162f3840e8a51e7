"""Tectonic-style DBtable metadata service (§2.3, baseline of §6.1).

The classic COSS architecture the paper starts from: a hierarchical
namespace as a sharded database table, level-by-level multi-RPC path
resolution, and — per the paper's re-implementation — *relaxed consistency*
for directory modifications: each row change is its own single-shard
transaction rather than one distributed transaction, and contended parent
attribute updates are optimistic read-modify-writes that abort and retry.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.base import IdAllocator, MetadataSystem
from repro.baselines.common import StorageMixin
from repro.errors import (
    IsADirectoryError,
    NoSuchPathError,
    NotADirectoryError,
    NotEmptyError,
    RenameLoopError,
    TransactionAbort,
)
from repro.paths import is_prefix, normalize
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network
from repro.sim.stats import PHASE_EXECUTION, OpContext
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import AttrMeta, EntryKind, Permission, make_stat


class TectonicSystem(StorageMixin, MetadataSystem):
    """DBtable-based baseline: Table 2 deploys it on 21 DB servers."""

    name = "tectonic"

    def __init__(self, sim: Optional[Simulator] = None,
                 network: Optional[Network] = None,
                 num_db_servers: int = 21, num_db_shards: int = 84,
                 db_cores: int = 32, num_proxies: int = 4,
                 proxy_cores: int = 32, costs: Optional[CostModel] = None):
        self.costs = costs or CostModel()
        sim = sim or Simulator()
        network = network or Network(sim, one_way_us=self.costs.net_one_way_us)
        super().__init__(sim, network)
        self.ids = IdAllocator()
        self._init_storage(num_db_servers, num_db_shards, db_cores, self.costs)
        self.proxies: List[Tuple[Host, object]] = []
        for i in range(num_proxies):
            host = Host(sim, f"{self.name}-proxy-{i}", cores=proxy_cores)
            self.proxies.append((host, self.tafdb.client()))
        self._proxy_rr = 0

    def _proxy(self):
        self._proxy_rr += 1
        return self.proxies[self._proxy_rr % len(self.proxies)]

    def shutdown(self) -> None:
        self.tafdb.stop_compactors()

    # -- row helper --------------------------------------------------------------

    def _read_dirent(self, db, pid: int, name: str, path: str,
                     ctx: OpContext):
        row = yield from db.read(dirent_key(pid, name), ctx=ctx)
        if row is None:
            raise NoSuchPathError(path, name)
        return row

    # -- object operations ----------------------------------------------------------

    def op_create(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        pid, name, _perm = yield from self.resolve_sequential(
            db, path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        obj_id = self.ids.next()
        now = self.sim.now
        dirent = Dirent(id=obj_id, kind=EntryKind.OBJECT,
                        attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                                       ctime=now, mtime=now))
        yield from self.insert_with_conflict_check(
            db, dirent_key(pid, name), dirent, path, ctx)
        yield from self.update_parent_attrs(db, pid, 0, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return obj_id

    def op_delete(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        pid, name, _perm = yield from self.resolve_sequential(
            db, path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        row = yield from self._read_dirent(db, pid, name, path, ctx)
        if row.value.is_dir:
            raise IsADirectoryError(path)
        try:
            yield from db.execute_txn([WriteIntent(
                dirent_key(pid, name), "delete",
                expect_version=row.version)], ctx=ctx)
        except TransactionAbort as exc:
            if exc.reason == "missing":
                raise NoSuchPathError(path) from exc
            raise
        yield from self.update_parent_attrs(db, pid, 0, -1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return row.value.id

    def op_objstat(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        pid, name, _perm = yield from self.resolve_sequential(
            db, path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        row = yield from self._read_dirent(db, pid, name, path, ctx)
        if row.value.is_dir:
            attrs = yield from db.read_dir_attrs(row.value.id, ctx=ctx)
        else:
            attrs = row.value.attrs
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)

    # -- directory read operations ------------------------------------------------------

    def op_dirstat(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        dir_id, _none, _perm = yield from self.resolve_sequential(
            db, path, False, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        attrs = yield from db.read_dir_attrs(dir_id, ctx=ctx)
        if attrs is None:
            raise NoSuchPathError(path)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)

    def op_readdir(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        dir_id, _none, _perm = yield from self.resolve_sequential(
            db, path, False, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        page = yield from db.scan_children(dir_id, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return [name for name, _ in page]

    # -- directory modifications ---------------------------------------------------------

    def op_mkdir(self, path: str, ctx: OpContext,
                 permission: Permission = Permission.ALL):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        pid, name, _perm = yield from self.resolve_sequential(
            db, path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        dir_id = self.ids.next()
        now = self.sim.now
        # Relaxed consistency: three separate single-shard transactions.
        yield from self.insert_with_conflict_check(
            db, dirent_key(pid, name),
            Dirent(id=dir_id, kind=EntryKind.DIRECTORY,
                   permission=permission),
            path, ctx)
        yield from db.execute_txn([WriteIntent(
            attr_key(dir_id), "insert",
            AttrMeta(id=dir_id, kind=EntryKind.DIRECTORY, ctime=now,
                     mtime=now, permission=permission))], ctx=ctx)
        yield from self.update_parent_attrs(db, pid, 1, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return dir_id

    def op_rmdir(self, path: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        pid, name, _perm = yield from self.resolve_sequential(
            db, path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        row = yield from self._read_dirent(db, pid, name, path, ctx)
        if not row.value.is_dir:
            raise NotADirectoryError(path, name)
        dir_id = row.value.id
        non_empty = yield from db.has_children(dir_id, ctx=ctx)
        if non_empty:
            raise NotEmptyError(path)
        yield from db.execute_txn([WriteIntent(
            dirent_key(pid, name), "delete",
            expect_version=row.version)], ctx=ctx)
        yield from db.execute_txn([WriteIntent(
            attr_key(dir_id), "delete")], ctx=ctx)
        yield from self.update_parent_attrs(db, pid, -1, -1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return dir_id

    def op_setattr(self, path: str, permission: Permission, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        dir_id, _none, _perm = yield from self.resolve_sequential(
            db, path, False, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        attempt = 0
        while True:
            row = yield from db.read(attr_key(dir_id), ctx=ctx)
            if row is None:
                raise NoSuchPathError(path)
            attrs = row.value.copy()
            attrs.permission = permission
            attrs.mtime = self.sim.now
            try:
                yield from db.execute_txn([WriteIntent(
                    attr_key(dir_id), "update", attrs,
                    expect_version=row.version)], ctx=ctx)
                break
            except TransactionAbort:
                ctx.retries += 1
                attempt += 1
                yield self.sim.timeout(db.backoff_us(attempt))
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        host, db = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        src_pid, src_name, _sp = yield from self.resolve_sequential(
            db, src, True, ctx)
        dst_pid, dst_name, _dp = yield from self.resolve_sequential(
            db, dst, True, ctx)

        # Relaxed consistency (§6.1: "for Tectonic, we relax the consistency
        # and avoid using distributed transactions"): no transactional loop
        # detection — only a cheap client-side prefix check on the two
        # resolved paths.  Figure 15 accordingly shows no loop-detection
        # segment for Tectonic.
        if is_prefix(normalize(src), normalize(dst)):
            raise RenameLoopError(src, dst)

        ctx.begin(PHASE_EXECUTION, self.sim.now)
        row = yield from self._read_dirent(db, src_pid, src_name, src, ctx)
        if not row.value.is_dir:
            raise NotADirectoryError(src, src_name)
        # Relaxed consistency: delete + insert as separate transactions.
        yield from db.execute_txn([WriteIntent(
            dirent_key(src_pid, src_name), "delete",
            expect_version=row.version)], ctx=ctx)
        yield from self.insert_with_conflict_check(
            db, dirent_key(dst_pid, dst_name), row.value, dst, ctx)
        if src_pid == dst_pid:
            yield from self.update_parent_attrs(db, src_pid, 0, 0, ctx)
        else:
            yield from self.update_parent_attrs(db, src_pid, -1, -1, ctx)
            yield from self.update_parent_attrs(db, dst_pid, 1, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return row.value.id
