"""Mantle's proxy layer: per-operation orchestration (§4, Figure 5).

Each proxy is a stateless request coordinator.  For every metadata operation
it performs the paper's division of labour:

* **lookup** — a single RPC to an IndexNode replica (leader, or any
  follower/learner when follower read is enabled);
* **execution** — TafDB reads/transactions (with the delta-record fast path
  under contention) plus, for directory mutations, one Raft-replicated
  IndexNode command;
* **loop detection** — for dirrename only, folded into the IndexNode
  preparation RPC (which is why Mantle "records zero lookup time in
  dirrename": resolution is merged with loop detection).

Transaction aborts retry with exponential backoff and feed the contention
registry that activates delta records (§5.2.1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro import paths
from repro.errors import (
    AlreadyExistsError,
    IsADirectoryError,
    MetadataError,
    NoSuchPathError,
    NotADirectoryError,
    NotEmptyError,
    PermissionDeniedError,
    RenameLockConflict,
    ServiceUnavailableError,
    TransactionAbort,
)
from repro.sim.stats import (
    PHASE_EXECUTION,
    PHASE_LOOKUP,
    PHASE_LOOP_DETECT,
    OpContext,
)
from repro.tafdb.client import MAX_RETRIES
from repro.tafdb.rows import AttrDelta, Dirent, attr_key, delta_key, dirent_key
from repro.tafdb.shard import WriteIntent
from repro.types import AttrMeta, EntryKind, Permission, make_stat


@dataclasses.dataclass
class _ParentDelta:
    """Pending attribute change for one parent directory."""

    link_delta: int = 0
    entry_delta: int = 0


class MantleProxy:
    """One stateless proxy endpoint of a Mantle deployment."""

    def __init__(self, service, proxy_id: int):
        self.service = service
        self.proxy_id = proxy_id
        self.sim = service.sim
        self.network = service.network
        self.config = service.config
        self.costs = service.costs
        #: Execution environment (RPC, clock, host work): the system's
        #: SimRuntime in a simulated deployment, an AsyncioRuntime inside a
        #: ``mantle-serve`` proxy process.  Every op_* generator below goes
        #: through this seam only, which is what lets the identical
        #: orchestration code run live (docs/runtime.md).
        self.runtime = service.runtime
        self.host = service.proxy_host(proxy_id)
        self.db = service.tafdb.client()
        self._replica_rr = 0
        self._outstanding_lookups = 0
        #: §5.1.3: lookups spill to followers/learners only "when the
        #: leader node is under heavy load" — approximated by how many of
        #: this proxy's lookups are already in flight.
        self.follower_spill_threshold = 4
        #: Optional Figure 20 metadata cache (off in Mantle's design).
        self.client_cache = None
        if self.config.client_cache_capacity > 0:
            from repro.structures.lru import LRUCache
            self.client_cache = LRUCache(self.config.client_cache_capacity)

    # -- IndexNode routing ----------------------------------------------------

    def _leader_service(self):
        return self.service.leader_service()

    def _lookup_service(self):
        """Pick a replica for a lookup.

        Leader-only without follower read; with it, the leader serves until
        this proxy has ``follower_spill_threshold`` lookups already in
        flight, then requests round-robin across every replica (leader,
        followers, learners) — §5.1.3's load-conditional offload.
        """
        if not self.config.enable_follower_read:
            return self._leader_service()
        if self._outstanding_lookups < self.follower_spill_threshold:
            return self._leader_service()
        services = self.service.lookup_services()
        self._replica_rr += 1
        return services[self._replica_rr % len(services)]

    @staticmethod
    def _cache_key(path: str, want: str):
        """AM-Cache-style key: the *directory* being resolved, so sibling
        objects in one directory share an entry."""
        if want == "parent":
            parent_path, name = paths.parent_and_name(path)
            return parent_path, name
        return paths.normalize(path), None

    def _index_lookup(self, path: str, want: str, ctx: OpContext):
        """Single-RPC path resolution with leader-failover retry."""
        cache_key = final_name = None
        if self.client_cache is not None:
            cache_key, final_name = self._cache_key(path, want)
            cached = self.client_cache.get(cache_key)
            if cached is not None:
                yield from self.runtime.work(self.host, self.costs.cache_hit_us)
                target_id, permission, depth = cached
                from repro.indexnode.state import LookupOutcome
                return LookupOutcome(
                    path=path, target_id=target_id, final_name=final_name,
                    permission=permission, depth=depth, cache_hit=True,
                    bypassed_cache=False, index_probes=0, cache_probes=0)
        for attempt in range(4):
            service = self._lookup_service()
            self._outstanding_lookups += 1
            try:
                outcome = yield from self.runtime.rpc(
                    service, "lookup", path, want, ctx=ctx)
                if self.client_cache is not None:
                    self.client_cache.put(
                        cache_key,
                        (outcome.target_id, outcome.permission,
                         outcome.depth))
                return outcome
            except ServiceUnavailableError:
                ctx.retries += 1
                yield from self.runtime.sleep(self.db.backoff_us(attempt))
            finally:
                self._outstanding_lookups -= 1
        raise ServiceUnavailableError("indexnode")

    def _index_mutate(self, command, ctx: OpContext):
        for attempt in range(4):
            try:
                service = self._leader_service()
                result = yield from self.runtime.rpc(
                    service, "mutate", command, ctx=ctx)
                return result
            except ServiceUnavailableError:
                ctx.retries += 1
                yield from self.runtime.sleep(self.db.backoff_us(attempt))
        raise ServiceUnavailableError("indexnode leader")

    def _require(self, outcome, path: str, write: bool = False) -> None:
        """Enforce the Lazy-Hybrid unified path permission (§5.1.1).

        Traversal needs EXECUTE across the whole prefix; mutating a
        directory's contents additionally needs WRITE.  The mask arrives
        pre-intersected from the IndexNode (or its caches), so enforcement
        is a single AND here.
        """
        permission = outcome.permission
        if permission is Permission.ALL:  # skip IntFlag.__and__
            return
        needed = Permission.EXECUTE
        if write:
            needed |= Permission.WRITE
        if (permission & needed) != needed:
            raise PermissionDeniedError(path, needed)

    # -- TafDB transaction helper with delta-record fast path ----------------------

    def _txn_with_parents(self, static_intents: List[WriteIntent],
                          parent_deltas: Dict[int, _ParentDelta],
                          semantic: Dict, ctx: OpContext,
                          force_delta: bool = False):
        """Run one metadata transaction, retrying on contention.

        ``static_intents`` are the dirent/attr-row changes of the operation
        itself; ``parent_deltas`` the attribute adjustments of the affected
        parent directories.  Each attempt builds parent updates fresh:
        through conflict-free delta records when the directory is in delta
        mode, or read-modify-write with version expectations otherwise.
        ``force_delta`` always uses delta records (object create/delete:
        pure counter adjustments where the append is also the fast path —
        no parent read, and the dirent insert plus the delta share the
        parent's shard, so the whole transaction is one RPC).

        ``semantic`` maps a row key to an exception factory: an abort caused
        by that key is a real application error (EEXIST/ENOENT), not
        contention, and is raised immediately without retry.
        """
        registry = self.service.tafdb.contention
        use_delta_always = force_delta and self.config.enable_delta_records
        attempt = 0
        while True:
            intents = list(static_intents)
            for parent_id, pending in parent_deltas.items():
                if (use_delta_always
                        or registry.is_delta_mode(parent_id, self.runtime.now)):
                    intents.append(WriteIntent(
                        delta_key(parent_id, self.db.next_delta_ts()),
                        "insert",
                        AttrDelta(link_delta=pending.link_delta,
                                  entry_delta=pending.entry_delta,
                                  mtime=self.runtime.now)))
                else:
                    row = yield from self.db.read(attr_key(parent_id), ctx=ctx)
                    if row is None:
                        raise NoSuchPathError(f"dir id {parent_id}")
                    attrs = row.value.copy()
                    attrs.link_count += pending.link_delta
                    attrs.entry_count += pending.entry_delta
                    attrs.mtime = self.runtime.now
                    intents.append(WriteIntent(
                        attr_key(parent_id), "update", attrs,
                        expect_version=row.version))
            try:
                yield from self.db.execute_txn(intents, ctx=ctx)
                return
            except TransactionAbort as exc:
                factory = semantic.get(exc.key) if exc.key is not None else None
                if factory is not None and exc.reason in ("exists", "missing"):
                    raise factory() from exc
                if exc.key is not None and exc.key.is_attr:
                    registry.note_abort(exc.key.pid, self.runtime.now)
                ctx.retries += 1
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise
                yield from self.runtime.sleep(self.db.backoff_us(attempt))

    # -- object operations ------------------------------------------------------------

    def op_create(self, path: str, ctx: OpContext, size: int = 0):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(parent, path, write=True)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        obj_id = self.service.ids.next()
        now = self.runtime.now
        dirent = Dirent(id=obj_id, kind=EntryKind.OBJECT,
                        attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                                       size=size, ctime=now, mtime=now))
        key = dirent_key(parent.target_id, parent.final_name)
        yield from self._txn_with_parents(
            [WriteIntent(key, "insert", dirent)],
            {parent.target_id: _ParentDelta(entry_delta=1)},
            {key: lambda: AlreadyExistsError(path)},
            ctx, force_delta=True)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return obj_id

    def _read_dirent(self, parent, path: str, ctx: OpContext):
        row = yield from self.db.read(
            dirent_key(parent.target_id, parent.final_name), ctx=ctx)
        if row is None:
            raise NoSuchPathError(path, parent.final_name)
        return row

    def op_delete(self, path: str, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(parent, path, write=True)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        row = yield from self._read_dirent(parent, path, ctx)
        if row.value.is_dir:
            raise IsADirectoryError(path)
        key = dirent_key(parent.target_id, parent.final_name)
        yield from self._txn_with_parents(
            [WriteIntent(key, "delete", expect_version=row.version)],
            {parent.target_id: _ParentDelta(entry_delta=-1)},
            {key: lambda: NoSuchPathError(path)},
            ctx, force_delta=True)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return row.value.id

    def op_objstat(self, path: str, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(parent, path)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        row = yield from self._read_dirent(parent, path, ctx)
        value = row.value
        if value.is_dir:
            attrs = yield from self.db.read_dir_attrs(value.id, ctx=ctx)
            if attrs is None:
                raise NoSuchPathError(path)
        else:
            attrs = value.attrs
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return make_stat(paths.normalize(path), attrs)

    # -- directory read operations -----------------------------------------------------

    def op_dirstat(self, path: str, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        target = yield from self._index_lookup(path, "dir", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(target, path)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        attrs = yield from self.db.read_dir_attrs(target.target_id, ctx=ctx)
        if attrs is None:
            raise NoSuchPathError(path)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return make_stat(paths.normalize(path), attrs)

    def op_readdir(self, path: str, limit: Optional[int] = None,
                   start_after: Optional[str] = None, *, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        target = yield from self._index_lookup(path, "dir", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(target, path)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        page = yield from self.db.scan_children(
            target.target_id, limit=limit, start_after=start_after, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return [name for name, _ in page]

    # -- directory modifications (§5.2) --------------------------------------------------

    def op_mkdir(self, path: str, ctx: OpContext,
                 permission: Permission = Permission.ALL):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(parent, path, write=True)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        dir_id = self.service.ids.next()
        now = self.runtime.now
        key = dirent_key(parent.target_id, parent.final_name)
        dirent = Dirent(id=dir_id, kind=EntryKind.DIRECTORY,
                        permission=permission)
        attrs = AttrMeta(id=dir_id, kind=EntryKind.DIRECTORY,
                         ctime=now, mtime=now, permission=permission)
        yield from self._txn_with_parents(
            [WriteIntent(key, "insert", dirent),
             WriteIntent(attr_key(dir_id), "insert", attrs)],
            {parent.target_id: _ParentDelta(link_delta=1, entry_delta=1)},
            {key: lambda: AlreadyExistsError(path)},
            ctx)
        # Synchronize the access metadata into the IndexNode (one Raft commit).
        yield from self._index_mutate(
            ("mkdir", parent.target_id, parent.final_name, dir_id,
             int(permission)), ctx)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return dir_id

    def op_rmdir(self, path: str, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        self._require(parent, path, write=True)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        row = yield from self._read_dirent(parent, path, ctx)
        if not row.value.is_dir:
            raise NotADirectoryError(path, parent.final_name)
        dir_id = row.value.id
        non_empty = yield from self.db.has_children(dir_id, ctx=ctx)
        if non_empty:
            raise NotEmptyError(path)
        key = dirent_key(parent.target_id, parent.final_name)
        yield from self._txn_with_parents(
            [WriteIntent(key, "delete", expect_version=row.version),
             WriteIntent(attr_key(dir_id), "delete")],
            {parent.target_id: _ParentDelta(link_delta=-1, entry_delta=-1)},
            {key: lambda: NoSuchPathError(path)},
            ctx)
        yield from self._index_mutate(
            ("rmdir", parent.target_id, parent.final_name,
             paths.normalize(path)), ctx)
        self._client_cache_invalidate(paths.normalize(path))
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return dir_id

    def _client_cache_invalidate(self, prefix: str) -> None:
        if self.client_cache is not None:
            self.client_cache.invalidate_where(
                lambda key: paths.is_prefix(prefix, key))

    def op_setattr(self, path: str, permission: Permission, ctx: OpContext):
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.runtime.now)
        target = yield from self._index_lookup(path, "dir", ctx)
        ctx.end(PHASE_LOOKUP, self.runtime.now)
        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        parent = yield from self._index_lookup(path, "parent", ctx)
        # setattr is owner-gated in real systems (chmod), not write-gated —
        # gating on the target's own mask would lock a directory forever.
        # We model ownership as always-satisfied and only require traversal.
        self._require(parent, path)
        row = yield from self.db.read(attr_key(target.target_id), ctx=ctx)
        if row is None:
            raise NoSuchPathError(path)
        attrs = row.value.copy()
        attrs.permission = permission
        attrs.mtime = self.runtime.now
        yield from self._txn_with_parents(
            [WriteIntent(attr_key(target.target_id), "update", attrs,
                         expect_version=row.version)],
            {}, {}, ctx)
        yield from self._index_mutate(
            ("setperm", parent.target_id, parent.final_name,
             int(permission), paths.normalize(path)), ctx)
        self._client_cache_invalidate(paths.normalize(path))
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return make_stat(paths.normalize(path), attrs)

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        """Cross-directory rename, Figure 9's full workflow."""
        yield from self.runtime.work(self.host, self.costs.proxy_overhead_us)
        owner = self.service.next_uuid()
        # Resolution is merged with loop detection on the IndexNode, so the
        # whole preparation is accounted to the loop-detection phase.
        ctx.begin(PHASE_LOOP_DETECT, self.runtime.now)
        prep = None
        for attempt in range(MAX_RETRIES + 1):
            try:
                service = self._leader_service()
                prep = yield from self.runtime.rpc(
                    service, "rename_prepare", src, dst, owner, ctx=ctx)
                break
            except RenameLockConflict:
                ctx.retries += 1
                yield from self.runtime.sleep(self.db.backoff_us(attempt))
            except ServiceUnavailableError:
                ctx.retries += 1
                yield from self.runtime.sleep(self.db.backoff_us(attempt))
        ctx.end(PHASE_LOOP_DETECT, self.runtime.now)
        if prep is None:
            raise RenameLockConflict(src)
        needed = Permission.EXECUTE | Permission.WRITE
        if (prep.permission & needed) != needed:
            yield from self._index_mutate(
                ("rename_abort", prep.src_pid, prep.src_name, owner,
                 prep.src_path), ctx)
            raise PermissionDeniedError(src, needed)

        ctx.begin(PHASE_EXECUTION, self.runtime.now)
        src_key = dirent_key(prep.src_pid, prep.src_name)
        dst_key = dirent_key(prep.dst_parent_id, prep.dst_name)
        moved = Dirent(id=prep.src_id, kind=EntryKind.DIRECTORY,
                       permission=prep.permission)
        parent_deltas: Dict[int, _ParentDelta] = {}
        if prep.src_pid == prep.dst_parent_id:
            parent_deltas[prep.src_pid] = _ParentDelta()  # mtime-only
        else:
            parent_deltas[prep.src_pid] = _ParentDelta(link_delta=-1,
                                                       entry_delta=-1)
            parent_deltas[prep.dst_parent_id] = _ParentDelta(link_delta=1,
                                                             entry_delta=1)
        try:
            yield from self._txn_with_parents(
                [WriteIntent(src_key, "delete"),
                 WriteIntent(dst_key, "insert", moved)],
                parent_deltas,
                {dst_key: lambda: AlreadyExistsError(dst),
                 src_key: lambda: NoSuchPathError(src)},
                ctx)
        except MetadataError:
            # Release the rename lock before surfacing the error.
            yield from self._index_mutate(
                ("rename_abort", prep.src_pid, prep.src_name, owner,
                 prep.src_path), ctx)
            ctx.end(PHASE_EXECUTION, self.runtime.now)
            raise
        yield from self._index_mutate(
            ("rename_commit", prep.src_pid, prep.src_name,
             prep.dst_parent_id, prep.dst_name), ctx)
        self._client_cache_invalidate(prep.src_path)
        ctx.end(PHASE_EXECUTION, self.runtime.now)
        return prep.src_id


class ProxyRouted:
    """Routing for a metadata system whose ops all run on a fleet of
    :class:`MantleProxy` instances — the simulated ``MantleSystem`` and
    the live proxy process's ``LiveMantleService``.

    ``MetadataSystem.perform`` resolves each op's handler at the op's
    first resume: one round-robin proxy pick, then that proxy's own
    ``op_<name>`` generator runs directly.
    """

    def _init_proxies(self, count: int) -> None:
        self.proxies = [MantleProxy(self, i) for i in range(count)]
        self._proxy_rr = 0

    def proxy(self) -> MantleProxy:
        self._proxy_rr += 1
        return self.proxies[self._proxy_rr % len(self.proxies)]

    def _handler_for(self, op_name: str):
        handler = getattr(self.proxy(), "op_" + op_name, None)
        if handler is None:
            raise NotImplementedError(
                f"{self.name} does not implement {op_name!r}")
        return handler
