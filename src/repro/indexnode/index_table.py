"""The IndexTable: directory access metadata keyed by (pid, dirname).

Figure 6's table, holding for every directory its parent id, name, own id,
permission and the rename lock bit.  A reverse id index supports the
ancestor walks rename loop detection needs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    AlreadyExistsError,
    NoSuchPathError,
    RenameLoopError,
)
from repro.types import ROOT_ID, AccessMeta, Permission

_ALL = Permission.ALL


class IndexTable:
    """In-memory map of all directory access metadata for one namespace.

    The root directory (id :data:`~repro.types.ROOT_ID`) is implicit: it has
    no (pid, name) row, permission ALL, and is the starting point of every
    resolution.
    """

    #: Approximate bytes per entry, per the paper ("approximately 80 bytes
    #: per directory") — used for memory accounting, not allocation.
    ENTRY_BYTES = 80

    def __init__(self, root_id: int = ROOT_ID):
        self.root_id = root_id
        self._by_key: Dict[Tuple[int, str], AccessMeta] = {}
        self._by_id: Dict[int, Tuple[int, str]] = {}
        # Observability: resolution volume and per-level probe work, the
        # denominator behind cache-efficiency reporting (fig18).
        self.resolve_calls = 0
        self.probe_count = 0

    @property
    def probes_per_resolve(self) -> float:
        """Mean hash probes per ``resolve_dir`` call (0 when unused)."""
        if self.resolve_calls == 0:
            return 0.0
        return self.probe_count / self.resolve_calls

    def __len__(self) -> int:
        return len(self._by_key)

    def copy(self) -> "IndexTable":
        """Independent table sharing the (frozen) :class:`AccessMeta` rows:
        only the containers are copied, which is what a snapshot needs."""
        twin = type(self)(self.root_id)
        twin._by_key = dict(self._by_key)
        twin._by_id = dict(self._by_id)
        twin.resolve_calls = self.resolve_calls
        twin.probe_count = self.probe_count
        return twin

    @property
    def memory_bytes(self) -> int:
        return len(self._by_key) * self.ENTRY_BYTES

    # -- basic CRUD -----------------------------------------------------------

    def get(self, pid: int, name: str) -> Optional[AccessMeta]:
        return self._by_key.get((pid, name))

    def insert(self, meta: AccessMeta,
               key: Optional[Tuple[int, str]] = None) -> None:
        """Add a directory.  ``key`` is its ``(pid, name)`` tuple when the
        caller has one to share (the bulk loader hands every replica the
        same ``meta`` and ``key``: both are immutable, and every update
        replaces an entry rather than mutating it)."""
        if key is None:
            key = (meta.pid, meta.name)
        if key in self._by_key:
            raise AlreadyExistsError(f"{meta.pid}:{meta.name}")
        if meta.id in self._by_id or meta.id == self.root_id:
            raise AlreadyExistsError(f"directory id {meta.id}")
        self._by_key[key] = meta
        self._by_id[meta.id] = key

    def remove(self, pid: int, name: str) -> AccessMeta:
        meta = self._by_key.pop((pid, name), None)
        if meta is None:
            raise NoSuchPathError(f"{pid}:{name}")
        del self._by_id[meta.id]
        return meta

    def replace(self, meta: AccessMeta) -> None:
        """Overwrite an existing entry (permission / lock-bit updates)."""
        key = (meta.pid, meta.name)
        if key not in self._by_key:
            raise NoSuchPathError(f"{meta.pid}:{meta.name}")
        self._by_key[key] = meta

    def locate(self, dir_id: int) -> Optional[Tuple[int, str]]:
        """Reverse map: directory id -> (pid, name)."""
        if dir_id == self.root_id:
            return None
        return self._by_id.get(dir_id)

    def entries(self) -> Iterator[AccessMeta]:
        return iter(list(self._by_key.values()))

    # -- locks (§5.2.2) ----------------------------------------------------------

    def set_lock(self, pid: int, name: str, owner: str) -> None:
        meta = self._by_key.get((pid, name))
        if meta is None:
            raise NoSuchPathError(f"{pid}:{name}")
        self._by_key[(pid, name)] = meta.with_lock(owner)

    def clear_lock(self, pid: int, name: str, owner: Optional[str] = None) -> bool:
        """Release the lock; with ``owner`` given, only that owner's lock."""
        meta = self._by_key.get((pid, name))
        if meta is None or not meta.locked:
            return False
        if owner is not None and meta.lock_owner != owner:
            return False
        self._by_key[(pid, name)] = meta.without_lock()
        return True

    # -- resolution ----------------------------------------------------------------

    def resolve_dir(self, parts: List[str], start_id: Optional[int] = None,
                    start_perm: Permission = Permission.ALL,
                    path_for_errors: str = "") -> Tuple[int, Permission, int]:
        """Walk ``parts`` from ``start_id``; returns (dir id, aggregated
        permission, levels probed).

        Aggregation follows the Lazy-Hybrid rule: intersect permissions along
        the path.  Raises :class:`NoSuchPathError` on a missing component.
        """
        current = start_id if start_id is not None else self.root_id
        perm = start_perm
        probes = 0
        self.resolve_calls += 1
        try:
            for part in parts:
                meta = self._by_key.get((current, part))
                probes += 1
                if meta is None:
                    raise NoSuchPathError(
                        path_for_errors or "/".join(parts), part)
                if meta.permission is not _ALL:  # skip IntFlag.__and__
                    perm &= meta.permission
                current = meta.id
        finally:
            self.probe_count += probes
        return current, perm, probes

    # -- ancestor walks (rename loop detection, §5.2.2) ------------------------------

    def path_of(self, dir_id: int) -> str:
        """Reconstruct the full path of a directory (root-relative)."""
        parts: List[str] = []
        current = dir_id
        while current != self.root_id:
            key = self._by_id.get(current)
            if key is None:
                raise NoSuchPathError(f"id:{dir_id}")
            pid, name = key
            parts.append(name)
            current = pid
        return "/" + "/".join(reversed(parts))

    def ancestor_chain(self, dir_id: int) -> List[int]:
        """Ids from ``dir_id`` up to (and including) the root."""
        chain = [dir_id]
        current = dir_id
        while current != self.root_id:
            key = self._by_id.get(current)
            if key is None:
                raise NoSuchPathError(f"id:{dir_id}")
            current = key[0]
            chain.append(current)
        return chain

    def is_ancestor(self, ancestor_id: int, dir_id: int) -> bool:
        """True if ``ancestor_id`` is ``dir_id`` itself or lies above it."""
        return ancestor_id in self.ancestor_chain(dir_id)

    def check_rename_loop(self, src_id: int, dst_parent_id: int) -> None:
        """Raise :class:`RenameLoopError` if moving ``src_id`` under
        ``dst_parent_id`` would create a cycle."""
        if self.is_ancestor(src_id, dst_parent_id):
            raise RenameLoopError(self.path_of(src_id),
                                  self.path_of(dst_parent_id))

    def locked_on_chain(self, from_id: int, stop_id: int) -> List[int]:
        """Ids holding a rename lock on the walk from ``from_id`` up to (but
        excluding) ``stop_id`` — the LCA-to-destination check of Figure 9."""
        locked = []
        current = from_id
        while current != stop_id and current != self.root_id:
            key = self._by_id.get(current)
            if key is None:
                break
            meta = self._by_key[key]
            if meta.locked:
                locked.append(current)
            current = key[0]
        return locked

    # -- rename application -------------------------------------------------------------

    def rename(self, src_pid: int, src_name: str,
               dst_pid: int, dst_name: str) -> AccessMeta:
        """Move one directory entry; clears its lock bit (the paper releases
        the rename lock "when the access metadata of the source directory is
        deleted")."""
        meta = self._by_key.get((src_pid, src_name))
        if meta is None:
            raise NoSuchPathError(f"{src_pid}:{src_name}")
        if (dst_pid, dst_name) in self._by_key:
            raise AlreadyExistsError(f"{dst_pid}:{dst_name}")
        del self._by_key[(src_pid, src_name)]
        moved = dataclasses.replace(meta.without_lock(),
                                    pid=dst_pid, name=dst_name)
        self._by_key[(dst_pid, dst_name)] = moved
        self._by_id[meta.id] = (dst_pid, dst_name)
        return moved


class ChildIndexedTable(IndexTable):
    """An :class:`IndexTable` that also indexes child directory names per
    parent, for a service that lists and empties directories from its
    table (LocoFS's directory server).  Mantle's IndexNode never asks, so
    its replicas do not pay for the index."""

    def __init__(self, root_id: int = ROOT_ID):
        super().__init__(root_id)
        self._children: Dict[int, set] = {}

    def copy(self) -> "ChildIndexedTable":
        twin = super().copy()
        twin._children = {pid: set(names)
                          for pid, names in self._children.items()}
        return twin

    def insert(self, meta: AccessMeta,
               key: Optional[Tuple[int, str]] = None) -> None:
        super().insert(meta, key)
        self._children.setdefault(meta.pid, set()).add(meta.name)

    def remove(self, pid: int, name: str) -> AccessMeta:
        meta = super().remove(pid, name)
        self._unlink(pid, name)
        return meta

    def rename(self, src_pid: int, src_name: str,
               dst_pid: int, dst_name: str) -> AccessMeta:
        moved = super().rename(src_pid, src_name, dst_pid, dst_name)
        self._unlink(src_pid, src_name)
        self._children.setdefault(dst_pid, set()).add(dst_name)
        return moved

    def _unlink(self, pid: int, name: str) -> None:
        bucket = self._children.get(pid)
        if bucket is not None:
            bucket.discard(name)
            if not bucket:
                del self._children[pid]

    def children_names(self, pid: int) -> List[str]:
        """Names of child *directories* under ``pid`` (sorted)."""
        return sorted(self._children.get(pid, ()))

    def has_child_dirs(self, pid: int) -> bool:
        return bool(self._children.get(pid))
