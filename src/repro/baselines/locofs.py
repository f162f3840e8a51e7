"""LocoFS-style tiered metadata service (baseline of §6.1).

LocoFS decouples directory metadata from object metadata: a central
directory metadata server (here a three-replica Raft group, leader-serving)
holds the whole directory tree and its attributes, while object metadata
lives in the scalable database cluster.

Consequences the paper measures, all reproduced here:

* path resolution is local to the central node — few RPCs, but the node's
  CPU is the scalability ceiling (no TopDirPathCache, no follower reads);
* object creation must route through the directory node for the parent
  update, "imposing extra overhead" (§3.3) — though this also makes create
  competitive with Mantle (§6.3);
* every directory mutation is one Raft commit with per-operation fsync —
  "LocoFS's throughput is throttled by the Raft" (§6.3).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.common import TafDBBaseline, split_walk
from repro.errors import (
    AlreadyExistsError,
    IsADirectoryError,
    NoSuchPathError,
    NotEmptyError,
)
from repro.indexnode.index_table import ChildIndexedTable
from repro.paths import normalize
from repro.raft.group import RaftGroup
from repro.raft.node import NotLeaderError, RaftConfig
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network, Server, unary
from repro.sim.stats import (
    PHASE_EXECUTION,
    PHASE_LOOKUP,
    PHASE_LOOP_DETECT,
    OpContext,
)
from repro.tafdb.rows import Dirent, dirent_key
from repro.types import (
    ROOT_ID,
    AccessMeta,
    AttrMeta,
    EntryKind,
    Permission,
    make_stat,
)


class LocoDirState:
    """Replicated state of the directory metadata server: the directory
    tree plus per-directory attributes."""

    def __init__(self, _node_id: int = 0):
        self.table = ChildIndexedTable()
        self.attrs: Dict[int, AttrMeta] = {
            ROOT_ID: AttrMeta(id=ROOT_ID, kind=EntryKind.DIRECTORY)}

    def resolve(self, parts: List[str], path: str):
        return self.table.resolve_dir(parts, path_for_errors=path)

    def bump(self, dir_id: int, link_delta: int, entry_delta: int,
             now: float) -> None:
        attrs = self.attrs.get(dir_id)
        if attrs is None:
            raise NoSuchPathError(f"dir id {dir_id}")
        attrs.link_count += link_delta
        attrs.entry_count += entry_delta
        attrs.mtime = now

    def snapshot(self):
        import copy
        return copy.deepcopy((self.table, self.attrs))

    def restore(self, blob) -> None:
        import copy
        table, attrs = copy.deepcopy(blob)
        self.table = table
        self.attrs = attrs

    def apply(self, command: Tuple) -> Tuple:
        op = command[0]
        if op == "mkdir":
            _op, pid, name, dir_id, perm_value, now = command
            if self.table.get(pid, name) is not None:
                existing = self.table.get(pid, name)
                if existing.id == dir_id:
                    return ("ok", dir_id)
                return ("exists", existing.id)
            self.table.insert(AccessMeta(pid=pid, name=name, id=dir_id,
                                         permission=Permission(perm_value)))
            self.attrs[dir_id] = AttrMeta(
                id=dir_id, kind=EntryKind.DIRECTORY, ctime=now, mtime=now,
                permission=Permission(perm_value))
            self.bump(pid, 1, 1, now)
            return ("ok", dir_id)
        if op == "rmdir":
            _op, pid, name, now = command
            meta = self.table.get(pid, name)
            if meta is None:
                return ("missing", None)
            self.table.remove(pid, name)
            self.attrs.pop(meta.id, None)
            self.bump(pid, -1, -1, now)
            return ("ok", meta.id)
        if op == "rename":
            _op, src_pid, src_name, dst_pid, dst_name, now = command
            if self.table.get(src_pid, src_name) is None:
                return ("missing", None)
            if self.table.get(dst_pid, dst_name) is not None:
                return ("exists", None)
            moved = self.table.rename(src_pid, src_name, dst_pid, dst_name)
            if src_pid != dst_pid:
                self.bump(src_pid, -1, -1, now)
                self.bump(dst_pid, 1, 1, now)
            return ("ok", moved.id)
        if op == "setperm":
            _op, pid, name, perm_value, now = command
            meta = self.table.get(pid, name)
            if meta is None:
                return ("missing", None)
            import dataclasses
            self.table.replace(dataclasses.replace(
                meta, permission=Permission(perm_value)))
            attrs = self.attrs.get(meta.id)
            if attrs is not None:
                attrs.permission = Permission(perm_value)
                attrs.mtime = now
            return ("ok", meta.id)
        return ("err", f"unknown command {op!r}")


class LocoDirService(Server):
    """RPC surface of the central directory metadata server (leader-only)."""

    def __init__(self, host: Host, node, state: LocoDirState,
                 costs: CostModel):
        super().__init__(host)
        self.node = node
        self.state = state
        self.costs = costs

    def _require_leader(self):
        if not self.node.is_leader:
            raise NotLeaderError(self.node.leader_hint)

    def _walk(self, path: str, upto_parent: bool):
        """Local tree walk: ``(cpu us, (dir_id, final, perm))``, one probe
        charged per level."""
        walk, final = split_walk(path, upto_parent)
        dir_id, perm, probes = self.state.resolve(walk, path)
        return (self.costs.index_rpc_overhead_us
                + probes * self.costs.index_probe_us
                + (len(walk) + (final is not None))
                * self.costs.permission_check_us,
                (dir_id, final, perm))

    def _resolve(self, path: str, upto_parent: bool):
        us, result = self._walk(path, upto_parent)
        yield from self.host.work(us)
        return result

    @unary
    def rpc_resolve(self, path: str, upto_parent: bool = True):
        self._require_leader()
        us, result = self._walk(path, upto_parent)
        return us, None, result

    def rpc_dirstat(self, path: str):
        self._require_leader()
        dir_id, _final, _perm = yield from self._resolve(path, False)
        attrs = self.state.attrs.get(dir_id)
        if attrs is None:
            raise NoSuchPathError(path)
        return make_stat(normalize(path), attrs.copy())

    def rpc_list_subdirs(self, path: str):
        self._require_leader()
        dir_id, _final, _perm = yield from self._resolve(path, False)
        names = self.state.table.children_names(dir_id)
        yield from self.host.work(
            max(1, len(names)) * self.costs.index_probe_us)
        return dir_id, names

    def rpc_object_prep(self, path: str, entry_delta: int):
        """Resolve the parent and adjust its entry count for an object
        create/delete.  LocoFS relaxes durability for these counters (no
        Raft round), but they still consume the central node."""
        self._require_leader()
        pid, name, perm = yield from self._resolve(path, True)
        yield from self.host.work(self.costs.index_probe_us)
        if self.state.table.get(pid, name) is not None:
            # The name is a directory: object ops on it are semantic errors.
            if entry_delta > 0:
                raise AlreadyExistsError(path)
            raise IsADirectoryError(path)
        self.state.bump(pid, 0, entry_delta, self.sim.now)
        return pid, name, perm

    def rpc_mkdir(self, path: str, dir_id: int, perm_value: int):
        self._require_leader()
        pid, name, _perm = yield from self._resolve(path, True)
        result = yield self.node.propose(
            ("mkdir", pid, name, dir_id, perm_value, self.sim.now))
        if result[0] == "exists":
            raise AlreadyExistsError(path)
        return result[1]

    def rpc_rmdir(self, path: str):
        self._require_leader()
        pid, name, _perm = yield from self._resolve(path, True)
        meta = self.state.table.get(pid, name)
        if meta is None:
            raise NoSuchPathError(path, name)
        if self.state.table.has_child_dirs(meta.id):
            raise NotEmptyError(path)
        result = yield self.node.propose(("rmdir", pid, name, self.sim.now))
        if result[0] == "missing":
            raise NoSuchPathError(path)
        return meta.id

    def rpc_has_dir(self, path: str):
        """Check whether ``path`` resolves to a directory (rmdir support)."""
        self._require_leader()
        try:
            dir_id, _f, _p = yield from self._resolve(path, False)
        except NoSuchPathError:
            return None
        return dir_id

    def rpc_rename(self, src: str, dst: str):
        """Resolution, loop detection and the rename commit, all central."""
        self._require_leader()
        src_pid, src_name, _sp = yield from self._resolve(src, True)
        dst_pid, dst_name, _dp = yield from self._resolve(dst, True)
        meta = self.state.table.get(src_pid, src_name)
        if meta is None:
            raise NoSuchPathError(src, src_name)
        chain = self.state.table.ancestor_chain(dst_pid)
        yield from self.host.work(len(chain) * self.costs.index_probe_us)
        self.state.table.check_rename_loop(meta.id, dst_pid)
        result = yield self.node.propose(
            ("rename", src_pid, src_name, dst_pid, dst_name, self.sim.now))
        if result[0] == "missing":
            raise NoSuchPathError(src)
        if result[0] == "exists":
            raise AlreadyExistsError(dst)
        return result[1]

    def rpc_setattr(self, path: str, perm_value: int):
        self._require_leader()
        pid, name, _perm = yield from self._resolve(path, True)
        result = yield self.node.propose(
            ("setperm", pid, name, perm_value, self.sim.now))
        if result[0] == "missing":
            raise NoSuchPathError(path)
        return make_stat(normalize(path), self.state.attrs[result[1]].copy())


class LocoFSSystem(TafDBBaseline):
    """Tiered baseline: 3 directory-metadata + 18 object-metadata servers."""

    name = "locofs"

    def __init__(self, sim: Optional[Simulator] = None,
                 network: Optional[Network] = None,
                 num_db_servers: int = 18, num_db_shards: int = 72,
                 db_cores: int = 32, num_proxies: int = 4,
                 proxy_cores: int = 32, dir_server_cores: int = 64,
                 dir_replicas: int = 3, costs: Optional[CostModel] = None,
                 seed: int = 11):
        super().__init__(sim, network, costs, num_db_servers, num_db_shards,
                         db_cores)
        hosts = [Host(self.sim, f"locofs-dir-{i}", cores=dir_server_cores,
                      fsync_us=self.costs.fsync_us)
                 for i in range(dir_replicas)]
        # Per-operation fsync: LocoFS predates Mantle's Raft log batching.
        raft_config = RaftConfig(batching_enabled=False)
        self.dir_group = RaftGroup(
            self.sim, self.network, hosts, LocoDirState,
            num_voters=dir_replicas, config=raft_config, costs=self.costs,
            seed=seed)
        self.dir_services = {
            nid: LocoDirService(node.host, node, node.state_machine,
                                self.costs)
            for nid, node in self.dir_group.nodes.items()}
        self._init_proxies(num_proxies, proxy_cores)

    # -- lifecycle ----------------------------------------------------------------

    def startup(self) -> None:
        self.sim.run_process(self.dir_group.wait_for_leader())

    def shutdown(self) -> None:
        self.dir_group.stop()
        super().shutdown()

    def _dir_service(self) -> LocoDirService:
        leader = self.dir_group.leader_or_raise()
        return self.dir_services[leader.id]

    # -- bulk loading (directories live only at the dir server) ----------------------

    def bulk_load(self, dirs: Iterable[str] = (), objects: Iterable[str] = (),
                  size: int = 0) -> Optional[int]:
        """:meth:`StorageMixin.bulk_load` with directories installed in every
        dir-service replica instead of TafDB; each parent's counts fold with
        one ``bump`` per replica at the end of the call."""
        states = [node.state_machine for node in self.dir_group.nodes.values()]
        table = states[0].table
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
                if (table.get(pid, name) is not None
                        or dirent_key(pid, name) in self.tafdb.shard_for(pid)):
                    raise AlreadyExistsError(path)
                last = self.ids.next()
                for state in states:
                    state.table.insert(AccessMeta(pid=pid, name=name, id=last))
                    state.attrs[last] = AttrMeta(id=last,
                                                 kind=EntryKind.DIRECTORY)
                links[pid] += 1
                entries[pid] += 1
                known[path] = last
            for path in objects:
                path = normalize(path)
                pid, name = self._bulk_parent(path)
                if table.get(pid, name) is not None:
                    raise AlreadyExistsError(path)
                last = self._bulk_object(pid, name, path, size)
                entries[pid] += 1
        finally:
            for pid, count in entries.items():
                for state in states:
                    state.bump(pid, links[pid], count, 0.0)
        return last

    # -- object operations --------------------------------------------------------------

    def op_create(self, path: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        pid, name, _perm = yield from self.network.rpc(
            self._dir_service(), "object_prep", path, 1, ctx=ctx)
        ctx.end(PHASE_LOOKUP, self.sim.now)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        obj_id = self.ids.next()
        now = self.sim.now
        try:
            yield from self.insert_with_conflict_check(
                db, dirent_key(pid, name),
                Dirent(id=obj_id, kind=EntryKind.OBJECT,
                       attrs=AttrMeta(id=obj_id, kind=EntryKind.OBJECT,
                                      ctime=now, mtime=now)),
                path, ctx)
        except AlreadyExistsError:
            # Roll the speculative parent bump back.
            yield from self.network.rpc(
                self._dir_service(), "object_prep", path, -1, ctx=ctx)
            raise
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return obj_id

    def op_delete(self, path: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        pid, name, _perm = yield from self.network.rpc(
            self._dir_service(), "object_prep", path, -1, ctx=ctx)
        ctx.end(PHASE_LOOKUP, self.sim.now)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        obj_id = yield from self.delete_object_row(db, pid, name, path, ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return obj_id

    def op_objstat(self, path: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_LOOKUP, self.sim.now)
        pid, name, _perm = yield from self.network.rpc(
            self._dir_service(), "resolve", path, True, ctx=ctx)
        ctx.end(PHASE_LOOKUP, self.sim.now)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        row = yield from db.read(dirent_key(pid, name), ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        if row is None:
            raise NoSuchPathError(path, name)
        if row.value.is_dir:
            raise IsADirectoryError(path)
        return make_stat(normalize(path), row.value.attrs)

    # -- directory read operations -----------------------------------------------------------

    def op_dirstat(self, path: str, ctx: OpContext):
        """LocoFS resolves directory paths during the execution phase (§6.3):
        the whole dirstat is one RPC to the central node."""
        host, _db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        stat = yield from self.network.rpc(
            self._dir_service(), "dirstat", path, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return stat

    def op_readdir(self, path: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        dir_id, subdirs = yield from self.network.rpc(
            self._dir_service(), "list_subdirs", path, ctx=ctx)
        page = yield from db.scan_children(dir_id, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return sorted(set(subdirs) | {name for name, _ in page})

    # -- directory modifications ------------------------------------------------------------------

    def op_mkdir(self, path: str, ctx: OpContext,
                 permission: Permission = Permission.ALL):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        # Tiering tax (§3.3): the name may exist as an *object* in the
        # object store, which the directory server cannot see — one extra
        # cross-component round trip per mkdir.
        pid, name, _perm = yield from self.network.rpc(
            self._dir_service(), "resolve", path, True, ctx=ctx)
        clash = yield from db.read(dirent_key(pid, name), ctx=ctx)
        if clash is not None:
            raise AlreadyExistsError(path)
        dir_id = self.ids.next()
        result = yield from self.network.rpc(
            self._dir_service(), "mkdir", path, dir_id, int(permission),
            ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return result

    def op_rmdir(self, path: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        dir_id = yield from self.network.rpc(
            self._dir_service(), "has_dir", path, ctx=ctx)
        if dir_id is None:
            raise NoSuchPathError(path)
        has_objects = yield from db.has_children(dir_id, ctx=ctx)
        if has_objects:
            raise NotEmptyError(path)
        result = yield from self.network.rpc(
            self._dir_service(), "rmdir", path, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return result

    def op_setattr(self, path: str, permission: Permission, ctx: OpContext):
        host, _db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        result = yield from self.network.rpc(
            self._dir_service(), "setattr", path, int(permission), ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return result

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        host, db, _cache = self._proxy()
        yield from host.work(self.costs.proxy_overhead_us)
        # Resolution, loop detection and commit are all one central RPC;
        # account it to loop detection + execution like the paper does.
        ctx.begin(PHASE_LOOP_DETECT, self.sim.now)
        ctx.end(PHASE_LOOP_DETECT, self.sim.now)
        ctx.begin(PHASE_EXECUTION, self.sim.now)
        # Cross-store duplicate check: the destination name may exist as
        # an object, invisible to the directory server.
        dst_pid, dst_name, _perm = yield from self.network.rpc(
            self._dir_service(), "resolve", dst, True, ctx=ctx)
        clash = yield from db.read(dirent_key(dst_pid, dst_name), ctx=ctx)
        if clash is not None:
            raise AlreadyExistsError(dst)
        result = yield from self.network.rpc(
            self._dir_service(), "rename", src, dst, ctx=ctx)
        ctx.end(PHASE_EXECUTION, self.sim.now)
        return result
