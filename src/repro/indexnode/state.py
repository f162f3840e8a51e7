"""The IndexNode replicated state machine.

Every Raft replica owns one :class:`IndexNodeState`: the IndexTable, the
TopDirPathCache and the Invalidator.  Committed commands are applied in log
order on every replica, so all replicas converge (§4); cache-invalidation
information rides inside the commands, exactly as §5.1.3 prescribes
("operations requiring cache invalidation append the full paths of affected
directories to the Raft logs").

``apply`` never raises: it returns ``("ok", payload)`` or an error tuple the
serving layer translates back into exceptions, because a raising apply would
crash the Raft apply loop and, worse, would have to raise identically on
every replica.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.errors import InvalidPathError
from repro.indexnode.index_table import IndexTable
from repro.indexnode.invalidator import Invalidator
from repro.indexnode.path_cache import TopDirPathCache
from repro.paths import split_path
from repro.types import ROOT_ID, AccessMeta, Permission


@dataclasses.dataclass(frozen=True)
class LookupOutcome:
    """Result of one local path resolution, with cost accounting.

    ``target_id`` is the resolved directory's id (``want="dir"``) or the
    final component's parent directory id (``want="parent"``);
    ``index_probes`` / ``cache_probes`` let the serving layer charge CPU
    faithfully (the probes already happened logically).
    """

    path: str
    target_id: int
    final_name: Optional[str]
    permission: Permission
    depth: int
    cache_hit: bool
    bypassed_cache: bool
    index_probes: int
    cache_probes: int


class IndexNodeState:
    """Replicated directory index state for one namespace replica."""

    def __init__(self, cache_k: int = 3, cache_enabled: bool = True,
                 root_id: int = ROOT_ID):
        self.table = IndexTable(root_id=root_id)
        self.cache = TopDirPathCache(cache_k, enabled=cache_enabled)
        self.invalidator = Invalidator(self.cache)
        self.applied_commands = 0

    # -- lookup (Figure 7) ---------------------------------------------------

    def lookup(self, path: str, want: str = "parent") -> LookupOutcome:
        """Resolve ``path`` against local state (pure; no simulated cost).

        ``want="parent"`` resolves the final component's *parent* directory
        (object operations: the dirent itself lives in TafDB);
        ``want="dir"`` resolves the full path as a directory chain.
        """
        if want not in ("parent", "dir"):
            raise ValueError(f"unknown want {want!r}")
        parts = split_path(path)
        if want == "parent":
            if not parts:
                raise InvalidPathError(path, "root has no parent")
            resolve_parts, final_name = parts[:-1], parts[-1]
        else:
            resolve_parts, final_name = parts, None

        index_probes = 0
        cache_probes = 0
        cache_hit = False
        version_before = self.invalidator.version
        # Step 1: scan RemovalList for in-flight modifications on our path.
        blocked = self.invalidator.blocking_modification(path) is not None
        # The cache key is the path less its last k components, taken from
        # the parts already split rather than from the path again.
        keep = 0 if blocked else self.cache.prefix_depth(len(parts))
        if keep > len(resolve_parts):
            # Shallow parent resolution (depth < k): no cacheable prefix.
            keep = 0
        prefix_parts: List[str] = parts[:keep]
        prefix = "/" + "/".join(prefix_parts) if keep else None

        start_id, start_perm = self.table.root_id, Permission.ALL
        consumed = 0
        if prefix is not None:
            # Step 2: probe TopDirPathCache for the truncated prefix.
            cache_probes += 1
            entry = self.cache.probe(prefix)
            if entry is not None:
                start_id, start_perm = entry.dir_id, entry.permission
                consumed = len(prefix_parts)
                cache_hit = True
            else:
                # Resolve the prefix through IndexTable, then cache it if no
                # modification raced us (timestamp check).
                pre_id, pre_perm, probes = self.table.resolve_dir(
                    prefix_parts, self.table.root_id, Permission.ALL, path)
                index_probes += probes
                self.invalidator.try_cache(
                    prefix, pre_id, pre_perm, version_before)
                start_id, start_perm = pre_id, pre_perm
                consumed = len(prefix_parts)
        # Step 3: resolve the remaining levels through IndexTable.
        target_id, perm, probes = self.table.resolve_dir(
            resolve_parts[consumed:], start_id, start_perm, path)
        index_probes += probes
        return LookupOutcome(
            path=path,
            target_id=target_id,
            final_name=final_name,
            permission=perm,
            depth=len(parts),
            cache_hit=cache_hit,
            bypassed_cache=blocked,
            index_probes=index_probes,
            cache_probes=cache_probes,
        )

    # -- replicated mutations ------------------------------------------------------

    def apply(self, command: Tuple) -> Tuple:
        """Apply one committed Raft command.  Deterministic; never raises."""
        self.applied_commands += 1
        op = command[0]
        handler = getattr(self, "_apply_" + op, None)
        if handler is None:
            return ("err", f"unknown command {op!r}")
        return handler(*command[1:])

    def _apply_mkdir(self, pid: int, name: str, dir_id: int,
                     perm_value: int) -> Tuple:
        existing = self.table.get(pid, name)
        if existing is not None:
            if existing.id == dir_id:
                return ("ok", dir_id)  # idempotent retry
            return ("exists", existing.id)
        self.table.insert(AccessMeta(pid=pid, name=name, id=dir_id,
                                     permission=Permission(perm_value)))
        return ("ok", dir_id)

    def _apply_rmdir(self, pid: int, name: str, full_path: str) -> Tuple:
        meta = self.table.get(pid, name)
        if meta is None:
            return ("missing", None)
        self.table.remove(pid, name)
        # §5.1.2: an empty directory can't prefix another; only its own
        # cached prefix entry (if any) is dropped — no RemovalList round.
        self.invalidator.on_rmdir(full_path)
        return ("ok", meta.id)

    def _apply_rename_lock(self, src_pid: int, src_name: str, owner: str,
                           src_path: str) -> Tuple:
        meta = self.table.get(src_pid, src_name)
        if meta is None:
            return ("missing", None)
        if meta.locked and meta.lock_owner != owner:
            return ("locked", meta.lock_owner)
        if not meta.locked:
            self.table.set_lock(src_pid, src_name, owner)
        # Block cached lookups under the moving subtree.
        self.invalidator.mark_modifying(src_path)
        return ("ok", meta.id)

    def _apply_rename_commit(self, src_pid: int, src_name: str,
                             dst_pid: int, dst_name: str) -> Tuple:
        meta = self.table.get(src_pid, src_name)
        if meta is None:
            return ("missing", None)
        if self.table.get(dst_pid, dst_name) is not None:
            return ("exists", None)
        moved = self.table.rename(src_pid, src_name, dst_pid, dst_name)
        # The RemovalList mark stays until the Invalidator's background
        # purge clears the affected cache range.
        return ("ok", moved.id)

    def _apply_rename_abort(self, src_pid: int, src_name: str, owner: str,
                            src_path: str) -> Tuple:
        self.table.clear_lock(src_pid, src_name, owner)
        # Nothing changed, so the mark can be withdrawn without purging.
        self.invalidator.unmark(src_path)
        return ("ok", None)

    def _apply_setperm(self, pid: int, name: str, perm_value: int,
                       full_path: str) -> Tuple:
        meta = self.table.get(pid, name)
        if meta is None:
            return ("missing", None)
        self.table.replace(dataclasses.replace(
            meta, permission=Permission(perm_value)))
        # Permission changes alter aggregated path permissions of every
        # descendant: invalidate the subtree's cached prefixes.
        self.invalidator.mark_modifying(full_path)
        return ("ok", meta.id)

    # -- snapshotting (Raft log compaction support) -----------------------------------

    def snapshot(self):
        """Independent copy of all replicated state, for Raft snapshot
        shipping.  Containers are copied; the rows in them are frozen
        dataclasses and are shared."""
        return self._copied(self.table, self.cache, self.invalidator,
                            self.applied_commands)

    def restore(self, blob) -> None:
        """Replace local state with a copy of a snapshot in place, so
        existing references to this state machine stay valid and the blob
        can be installed on other replicas."""
        (self.table, self.cache, self.invalidator,
         self.applied_commands) = self._copied(*blob)

    @staticmethod
    def _copied(table, cache, invalidator, applied):
        cache = cache.copy()
        return table.copy(), cache, invalidator.copy(cache), applied
