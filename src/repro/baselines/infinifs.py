"""InfiniFS-style metadata service (baseline of §6.1).

Reproduces the three InfiniFS mechanisms the paper engages with:

* **speculative parallel path resolution** — directory ids are predictable
  (a hash of the full path at creation time), so the proxy issues reads for
  *every* path level concurrently and validates the returned chain; renamed
  subtrees keep their old ids, so predictions under them miss and resolution
  falls back to level-by-level reads.  Every speculative sub-request costs
  proxy CPU, which is the thread-over-provisioning overhead that makes the
  technique counterproductive under high concurrency (§3.3).
* **CFS two-transaction directory updates** — mkdir/rmdir split into
  single-shard transactions plus an atomic parent-attribute increment that
  serialises instead of aborting.
* **a rename coordinator** — a dedicated server mirroring the directory
  tree for loop detection and rename locking; dirrename itself still runs a
  distributed transaction whose in-place parent updates abort under
  contention (the breakdown §3.3 describes).

The optional AM-Cache (access-metadata LRU in the proxy) is disabled by
default and enabled for the Figure 20 study.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional

from repro.baselines.common import TafDBBaseline, split_walk
from repro.errors import (
    AlreadyExistsError,
    NoSuchPathError,
    RenameLockConflict,
    RenameLoopError,
    TransactionAbort,
)
from repro.indexnode.index_table import IndexTable
from repro.paths import normalize, parent_and_name, split_path
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network, Server
from repro.sim.stats import (
    PHASE_EXECUTION,
    PHASE_LOOKUP,
    PHASE_LOOP_DETECT,
    OpContext,
)
from repro.structures.lru import LRUCache
from repro.tafdb.client import MAX_RETRIES, attr_update
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import ROOT_ID, AccessMeta, AttrMeta, EntryKind, Permission, make_stat

_ALL = Permission.ALL

#: Retries of a dirrename's distributed transaction before it gives up.
#: Higher than ``MAX_RETRIES``: every parent-row conflict restarts the whole
#: transaction, and at ``--scale full`` one InfiniFS dirrename retries 77
#: times, so the shared limit would change full-scale results.
_RENAME_TXN_RETRIES = 256


def predict_dir_id(path: str) -> int:
    """Deterministic directory id from the creation-time full path."""
    if path == "/":
        return ROOT_ID
    digest = hashlib.blake2b(path.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") | (1 << 62)


class RenameCoordinator(Server):
    """InfiniFS's dedicated rename coordinator.

    Keeps a mirror of the directory tree (updated synchronously on every
    directory mutation) so it can run loop detection locally, plus an
    in-memory rename lock table.
    """

    def __init__(self, host: Host, costs: CostModel):
        super().__init__(host)
        self.costs = costs
        self.mirror = IndexTable()
        self.locks: Dict[str, str] = {}  # src path -> owner uuid
        #: Set by the system after construction: used to validate the
        #: ancestor chain against authoritative DB state during renames.
        self.db = None

    def rpc_mirror_mkdir(self, pid: int, name: str, dir_id: int,
                         perm_value: int):
        yield from self.host.work(self.costs.index_probe_us)
        if self.mirror.get(pid, name) is None:
            self.mirror.insert(AccessMeta(pid=pid, name=name, id=dir_id,
                                          permission=Permission(perm_value)))
        return True

    def rpc_mirror_rmdir(self, pid: int, name: str):
        yield from self.host.work(self.costs.index_probe_us)
        if self.mirror.get(pid, name) is not None:
            self.mirror.remove(pid, name)
        return True

    def rpc_mirror_setperm(self, pid: int, name: str, perm_value: int):
        yield from self.host.work(self.costs.index_probe_us)
        meta = self.mirror.get(pid, name)
        if meta is not None:
            self.mirror.replace(dataclasses.replace(
                meta, permission=Permission(perm_value)))
        return True

    def rpc_rename_prepare(self, src: str, dst: str, owner: str):
        """Loop detection + lock acquisition for one rename."""
        yield from self.host.work(self.costs.index_rpc_overhead_us)
        src, dst = normalize(src), normalize(dst)
        src_parent_path, src_name = parent_and_name(src)
        dst_parent_path, dst_name = parent_and_name(dst)
        src_pid, src_perm, p1 = self.mirror.resolve_dir(
            split_path(src_parent_path), path_for_errors=src)
        src_perm.check_path(src, write=True)
        dst_pid, dst_perm, p2 = self.mirror.resolve_dir(
            split_path(dst_parent_path), path_for_errors=dst)
        dst_perm.check_path(dst, write=True)
        if (src_pid, src_name) == (dst_pid, dst_name):
            raise RenameLoopError(src, dst)  # onto itself
        meta = self.mirror.get(src_pid, src_name)
        if meta is None:
            raise NoSuchPathError(src, src_name)
        chain = self.mirror.ancestor_chain(dst_pid)
        yield from self.host.work(
            (p1 + p2 + len(chain)) * self.costs.index_probe_us)
        self.mirror.check_rename_loop(meta.id, dst_pid)
        # The mirror alone is advisory: InfiniFS must validate the ancestor
        # chain against authoritative shard state before locking, one read
        # per level — the loop-detection overhead Figure 15 charges to it.
        if self.db is not None:
            for ancestor_id in chain:
                key = self.mirror.locate(ancestor_id)
                if key is None:
                    break
                yield from self.db.read(dirent_key(key[0], key[1]))
        holder = self.locks.get(src)
        if holder is not None and holder != owner:
            raise RenameLockConflict(src)
        self.locks[src] = owner
        return {"src_pid": src_pid, "src_name": src_name, "src_id": meta.id,
                "dst_pid": dst_pid, "dst_name": dst_name}

    def rpc_rename_finish(self, src: str, owner: str, commit: bool,
                          src_pid: int = 0, src_name: str = "",
                          dst_pid: int = 0, dst_name: str = ""):
        yield from self.host.work(self.costs.index_probe_us)
        src = normalize(src)
        if self.locks.get(src) == owner:
            del self.locks[src]
        if commit:
            self.mirror.rename(src_pid, src_name, dst_pid, dst_name)
        return True


class InfiniFSSystem(TafDBBaseline):
    """Speculative-resolution baseline: 3 coordinator + 18 DB servers."""

    name = "infinifs"

    def __init__(self, sim: Optional[Simulator] = None,
                 network: Optional[Network] = None,
                 num_db_servers: int = 18, num_db_shards: int = 72,
                 db_cores: int = 32, num_proxies: int = 4,
                 proxy_cores: int = 32, coordinator_cores: int = 64,
                 am_cache_capacity: int = 0,
                 costs: Optional[CostModel] = None):
        super().__init__(sim, network, costs, num_db_servers, num_db_shards,
                         db_cores, new_dir_id=predict_dir_id)
        self.coordinator = RenameCoordinator(
            Host(self.sim, "infinifs-coordinator", cores=coordinator_cores),
            self.costs)
        self.coordinator.db = self.tafdb.client()
        self._init_proxies(num_proxies, proxy_cores, am_cache_capacity)
        #: CPU charged per speculative sub-request on the proxy (thread
        #: spawn + marshalling) — the over-provisioning cost of §3.3.
        self.speculation_cpu_us = 10.0

    def _on_bulk_mkdir(self, pid: int, name: str, dir_id: int,
                       path: str) -> None:
        self.coordinator.mirror.insert(
            AccessMeta(pid=pid, name=name, id=dir_id))

    # -- speculative parallel resolution ------------------------------------------

    def _speculative_resolve(self, host, db, cache: Optional[LRUCache],
                             path: str, upto_parent: bool, ctx: OpContext):
        """Resolve ``path`` with one parallel round of predicted reads,
        falling back to sequential reads where predictions miss.

        Returns (dir_id, final_name, perm).  ``final_name`` is the last
        component when ``upto_parent`` (the object dirent stays with TafDB's
        execution phase), else None.
        """
        walk, final = split_walk(path, upto_parent)
        if not walk:
            return ROOT_ID, final, Permission.ALL

        # AM-Cache: start from the deepest cached prefix and its mask.  A
        # stale hit (concurrent rename through another proxy) surfaces as a
        # missing row mid-walk; drop the entry and retry without the cache.
        start_level = 0
        start_id = ROOT_ID
        perm = Permission.ALL
        cached_prefix = None
        if cache is not None:
            for level in range(len(walk), 0, -1):
                prefix = "/" + "/".join(walk[:level])
                hit = cache.get(prefix)
                if hit is not None:
                    start_level, (start_id, perm) = level, hit
                    cached_prefix = prefix
                    break
        if start_level == len(walk):
            return start_id, final, perm

        # One parallel round: read every remaining level with predicted pids.
        predicted = [start_id]
        prefix = "/" + "/".join(walk[:start_level]) if start_level else ""
        for level in range(start_level + 1, len(walk)):
            prefix += "/" + walk[level - 1]
            predicted.append(predict_dir_id(prefix))

        # Thread over-provisioning: every speculative sub-request costs
        # proxy CPU whether or not its prediction was useful.
        yield from host.work(self.speculation_cpu_us * len(predicted))
        procs = [self.sim.process(db.read(
                     dirent_key(predicted[i], walk[start_level + i]), ctx=ctx))
                 for i in range(len(predicted))]
        rows = yield self.sim.all_of(procs)

        # Validate the chain; from the first misprediction (renamed
        # ancestry) on, stop trusting it and read level by level.
        current = start_id
        speculating = True
        for level in range(start_level, len(walk)):
            if speculating:
                speculating = predicted[level - start_level] == current
            if speculating:
                row = rows[level - start_level]
            else:
                row = yield from db.read(dirent_key(current, walk[level]),
                                         ctx=ctx)
                if row is None and cached_prefix is not None:
                    # Possibly a stale cache hit: retry uncached once.
                    cache.invalidate(cached_prefix)
                    result = yield from self._speculative_resolve(
                        host, db, None, path, upto_parent, ctx)
                    cache.put("/" + "/".join(walk), (result[0], result[2]))
                    return result
            # An object on the way fails as Mantle's directory index does.
            if row is None or not row.value.is_dir:
                raise NoSuchPathError(path, walk[level])
            value = row.value
            if value.permission is not _ALL:  # skip IntFlag.__and__
                perm &= value.permission
            current = value.id

        if cache is not None:
            cache.put("/" + "/".join(walk), (current, perm))
        return current, final, perm

    # -- the hooks of the shared op bodies ------------------------------------------------

    #: The lookup is one speculative round of reads.
    _lookup = _speculative_resolve

    def _update_parent(self, db, pid: int, link_delta: int,
                       entry_delta: int, ctx: OpContext):
        """CFS's atomic increment: serialises on the shard, never aborts."""
        return db.atomic_add(pid, link_delta, entry_delta, ctx=ctx)

    def _on_dir_change(self, path: str, command, ctx: OpContext):
        """Keep the coordinator's mirror current; rmdir and setattr drop
        ``path``'s subtree (ids and masks) from every AM-Cache."""
        if command[0] != "mkdir":
            self._forget_cached(normalize(path))
        return self.network.rpc(self.coordinator, "mirror_" + command[0],
                                *command[1:], ctx=ctx)

    def _forget_cached(self, prefix: str) -> None:
        for proxy in self.proxies:
            if proxy.cache is not None:
                proxy.cache.invalidate_where(
                    lambda key: key == prefix
                    or key.startswith(prefix + "/"))

    # -- per-system operations -------------------------------------------------------------

    def op_objstat(self, path: str, ctx: OpContext):
        """InfiniFS resolves the object row inside the speculative round:
        execution is folded into the lookup phase (§6.3)."""
        host, db, cache = yield from self._proxy()
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        parts = split_path(path)
        parent_path = "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"
        pid, _final, perm = yield from self._speculative_resolve(
            host, db, cache, parent_path, upto_parent=False, ctx=ctx)
        perm.check_path(path)
        row = yield from db.read(dirent_key(pid, parts[-1]), ctx=ctx)
        ctx.end(PHASE_LOOKUP, self.sim.now)
        if row is None:
            raise NoSuchPathError(path, parts[-1])
        value = row.value
        if value.is_dir:
            attrs = yield from db.read_dir_attrs(value.id, ctx=ctx)
        else:
            attrs = value.attrs
        return make_stat(normalize(path), attrs)

    def op_mkdir(self, path: str, ctx: OpContext,
                 permission: Permission = Permission.ALL):
        proxy, pid, name = yield from self._step(path, True, ctx, write=True)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        db = proxy.db
        dir_id = predict_dir_id(normalize(path))
        now = self.sim.now
        # Txn 1: the directory's own attribute record (its future shard).
        # The id is the path hash, so a duplicate mkdir collides right here.
        attrs = AttrMeta(id=dir_id, kind=EntryKind.DIRECTORY, ctime=now,
                         mtime=now, permission=permission)
        try:
            yield from self.insert_with_conflict_check(
                db, attr_key(dir_id), attrs, path, ctx)
        except AlreadyExistsError:
            # Or with a directory renamed away from here, which keeps its
            # id: take an unpredicted one (lookups below read level-wise).
            if (yield from db.read(dirent_key(pid, name), ctx=ctx)):
                raise
            dir_id = self.ids.next()
            attrs = dataclasses.replace(attrs, id=dir_id)
            yield from self.insert_with_conflict_check(
                db, attr_key(dir_id), attrs, path, ctx)
        # Txn 2: access metadata, plus the atomic parent increment.
        try:
            yield from self.insert_with_conflict_check(
                db, dirent_key(pid, name),
                Dirent(id=dir_id, kind=EntryKind.DIRECTORY,
                       permission=permission),
                path, ctx)
        except (AlreadyExistsError, TransactionAbort):
            # The name is taken (or its dirent stayed locked through every
            # retry): drop the attribute row Txn 1 wrote.
            yield from db.execute_txn(
                [WriteIntent(attr_key(dir_id), "delete")], ctx=ctx)
            raise
        yield from self._update_parent(db, pid, 1, 1, ctx)
        yield from self._on_dir_change(
            path, ("mkdir", pid, name, dir_id, int(permission)), ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return dir_id

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        """Rename through the coordinator, then one distributed transaction
        whose in-place parent updates abort under contention (§3.3)."""
        host, db, cache = yield from self._proxy()
        owner = self.next_uuid()

        ctx.begin(PHASE_LOOP_DETECT, self.sim.now)
        prep = None
        for attempt in range(MAX_RETRIES + 1):
            try:
                prep = yield from self.network.rpc(
                    self.coordinator, "rename_prepare", src, dst, owner,
                    ctx=ctx)
                break
            except RenameLockConflict:
                ctx.retries += 1
                yield self.sim.timeout(db.backoff_us(attempt))
        ctx.end(PHASE_LOOP_DETECT, self.sim.now)
        if prep is None:
            raise RenameLockConflict(src)

        ctx.begin(PHASE_EXECUTION, self.sim.now)
        src_pid, dst_pid = prep["src_pid"], prep["dst_pid"]
        src_key = dirent_key(src_pid, prep["src_name"])
        dst_key = dirent_key(dst_pid, prep["dst_name"])
        parent_deltas = ({src_pid: (0, 0)} if src_pid == dst_pid
                         else {src_pid: (-1, -1), dst_pid: (1, 1)})
        committed = False
        try:
            attempt = 0
            while True:
                src_row = yield from db.read(src_key, ctx=ctx)
                if src_row is None:
                    raise NoSuchPathError(src)
                intents = [
                    WriteIntent(src_key, "delete",
                                expect_version=src_row.version),
                    WriteIntent(dst_key, "insert", src_row.value),
                ]
                for parent_id, (ld, ed) in parent_deltas.items():
                    intents.append((yield from attr_update(
                        db, parent_id, ld, ed, ctx)))
                try:
                    yield from db.execute_txn(intents, ctx=ctx)
                    committed = True
                    break
                except TransactionAbort as exc:
                    if exc.reason == "exists" and exc.key == dst_key:
                        raise AlreadyExistsError(dst) from exc
                    ctx.retries += 1
                    attempt += 1
                    if attempt > _RENAME_TXN_RETRIES:
                        raise
                    yield self.sim.timeout(db.backoff_us(attempt))
        finally:
            yield from self.network.rpc(
                self.coordinator, "rename_finish", src, owner, committed,
                src_pid, prep["src_name"], dst_pid, prep["dst_name"],
                ctx=ctx)
            ctx.end(PHASE_EXECUTION, self.sim.now)
        if committed:
            self._forget_cached(normalize(src))
        return prep["src_id"]
