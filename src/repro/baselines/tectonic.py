"""Tectonic-style DBtable metadata service (§2.3, baseline of §6.1).

The classic COSS architecture the paper starts from: a hierarchical
namespace as a sharded database table, level-by-level multi-RPC path
resolution, and — per the paper's re-implementation — *relaxed consistency*
for directory modifications: each row change is its own single-shard
transaction rather than one distributed transaction, and contended parent
attribute updates are optimistic read-modify-writes that abort and retry.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import TafDBBaseline, split_walk
from repro.errors import AlreadyExistsError, NoSuchPathError, RenameLoopError
from repro.paths import is_prefix, normalize
from repro.sim.core import Simulator
from repro.sim.host import CostModel
from repro.sim.network import Network
from repro.sim.stats import PHASE_EXECUTION, OpContext
from repro.tafdb.client import update_attrs
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import ROOT_ID, AttrMeta, EntryKind, Permission, make_stat

_ALL = Permission.ALL


class TectonicSystem(TafDBBaseline):
    """DBtable-based baseline: Table 2 deploys it on 21 DB servers."""

    name = "tectonic"

    def __init__(self, sim: Optional[Simulator] = None,
                 network: Optional[Network] = None,
                 num_db_servers: int = 21, num_db_shards: int = 84,
                 db_cores: int = 32, num_proxies: int = 4,
                 proxy_cores: int = 32, costs: Optional[CostModel] = None):
        super().__init__(sim, network, costs, num_db_servers, num_db_shards,
                         db_cores)
        self._init_proxies(num_proxies, proxy_cores)

    # -- the two hooks of the shared op bodies ----------------------------------------

    def _lookup(self, host, db, cache, path: str, upto_parent: bool,
                ctx: OpContext):
        """Level-by-level path traversal: one RPC per component.

        This is the multi-RPC resolution of Figure 2 that Mantle's
        single-RPC IndexNode lookup replaces.
        """
        walk, final = split_walk(path, upto_parent)
        current = ROOT_ID
        perm = Permission.ALL
        for part in walk:
            row = yield from db.read(dirent_key(current, part), ctx=ctx)
            # An object on the way fails as Mantle's directory index does.
            if row is None or not row.value.is_dir:
                raise NoSuchPathError(path, part)
            value = row.value
            if value.permission is not _ALL:  # skip IntFlag.__and__
                perm &= value.permission
            current = value.id
        return current, final, perm

    #: Relaxed consistency: the parent's counts change by an optimistic
    #: read-modify-write that aborts and retries under contention.
    _update_parent = staticmethod(update_attrs)

    # -- per-system operations ------------------------------------------------------

    def op_objstat(self, path: str, ctx: OpContext):
        proxy, pid, name = yield from self._step(path, True, ctx)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
        row = yield from db.read(dirent_key(pid, name), ctx=ctx)
        if row is None:
            raise NoSuchPathError(path, name)
        if row.value.is_dir:
            attrs = yield from db.read_dir_attrs(row.value.id, ctx=ctx)
        else:
            attrs = row.value.attrs
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return make_stat(normalize(path), attrs)

    def op_mkdir(self, path: str, ctx: OpContext,
                 permission: Permission = Permission.ALL):
        proxy, pid, name = yield from self._step(path, True, ctx, write=True)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
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
        yield from self._update_parent(db, pid, 1, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return dir_id

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        proxy, src_pid, src_name = yield from self._step(
            src, True, ctx, write=True)
        _proxy, dst_pid, dst_name = yield from self._step(
            dst, True, ctx, write=True, proxy=proxy)

        # Relaxed consistency (§6.1: "for Tectonic, we relax the consistency
        # and avoid using distributed transactions"): no transactional loop
        # detection — only a cheap client-side prefix check on the two
        # resolved paths.  Figure 15 accordingly shows no loop-detection
        # segment for Tectonic.
        if is_prefix(normalize(src), normalize(dst)):
            raise RenameLoopError(src, dst)

        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
        src_key = dirent_key(src_pid, src_name)
        row = yield from db.read(src_key, ctx=ctx)
        if row is None or not row.value.is_dir:
            raise NoSuchPathError(src, src_name)
        # Relaxed consistency: delete + insert as separate transactions.
        yield from db.execute_txn([WriteIntent(
            src_key, "delete", expect_version=row.version)], ctx=ctx)
        try:
            yield from self.insert_with_conflict_check(
                db, dirent_key(dst_pid, dst_name), row.value, dst, ctx)
        except AlreadyExistsError:
            # The destination is taken: put the source back.
            yield from db.execute_txn([WriteIntent(
                src_key, "insert", row.value)], ctx=ctx)
            raise
        if src_pid == dst_pid:
            yield from self._update_parent(db, src_pid, 0, 0, ctx)
        else:
            yield from self._update_parent(db, src_pid, -1, -1, ctx)
            yield from self._update_parent(db, dst_pid, 1, 1, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return row.value.id
