"""Core value types shared across TafDB, IndexNode and the baselines.

The paper splits directory metadata into *access metadata* (what IndexNode
holds: pid, name, id, permission, lock bit — roughly 80 bytes per directory)
and *attribute metadata* (what only TafDB holds: timestamps, link count,
entry count, owner...).  The types here mirror that division.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

#: Inode id of the namespace root directory ("/").
ROOT_ID = 1

#: First id handed out for user-created entries.
FIRST_USER_ID = 2


class EntryKind(enum.Enum):
    """Whether a namespace entry is a directory or an object."""

    DIRECTORY = "dir"
    OBJECT = "obj"


class Permission(enum.IntFlag):
    """Simplified per-entry permission mask.

    The Lazy-Hybrid scheme the paper adopts intersects permissions along the
    path to compute a unified path permission, so an IntFlag whose
    intersection (``&``) is meaningful is exactly what we need.
    """

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4
    ALL = READ | WRITE | EXECUTE


@dataclasses.dataclass(frozen=True, slots=True)
class AccessMeta:
    """Access metadata for one directory — the IndexNode's IndexTable row.

    This is the ~80-byte record of Figure 6: (pid, dirname) is the key and
    (id, permission, lock bit) the value.  ``lock_owner`` carries the
    client-generated rename UUID so retried loop-detection RPCs recognise
    their own lock (§5.3 idempotence).
    """

    pid: int
    name: str
    id: int
    permission: Permission = Permission.ALL
    locked: bool = False
    lock_owner: Optional[str] = None

    def with_lock(self, owner: str) -> "AccessMeta":
        return dataclasses.replace(self, locked=True, lock_owner=owner)

    def without_lock(self) -> "AccessMeta":
        return dataclasses.replace(self, locked=False, lock_owner=None)


@dataclasses.dataclass(slots=True)
class AttrMeta:
    """Attribute metadata stored only in TafDB.

    ``link_count`` / ``entry_count`` are the fields concurrent mkdir/rmdir in
    the same parent fight over; delta records (§5.2.1) exist to make those
    increments conflict-free.
    """

    id: int
    kind: EntryKind
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    link_count: int = 0
    entry_count: int = 0
    owner: str = "root"
    permission: Permission = Permission.ALL

    def copy(self) -> "AttrMeta":
        # Field by field: dataclasses.replace re-walks fields() per call.
        return AttrMeta(self.id, self.kind, self.size, self.ctime,
                        self.mtime, self.link_count, self.entry_count,
                        self.owner, self.permission)


@dataclasses.dataclass(frozen=True)
class DirentKey:
    """Primary key of the metadata table: (parent id, entry name).

    TafDB partitions by ``pid`` so entries of one directory co-locate on one
    shard (§2.3), which is what makes single-shard fast-paths possible and
    cross-directory operations distributed.
    """

    pid: int
    name: str


class OpResult(int):
    """Typed result of a mutating client operation.

    Behaves as the inode id of the affected entry (it *is* an ``int``, so
    existing ``stat.id == client.create(...)`` comparisons keep working) and
    additionally carries the per-operation measurements the client recorded:

    * ``rpcs`` — RPC round trips the operation performed (Table 1 counting);
    * ``retries`` — transaction/rename retries absorbed before success;
    * ``latency_us`` — simulated end-to-end latency in microseconds.
    """

    def __new__(cls, inode_id: int, rpcs: int = 0, retries: int = 0,
                latency_us: float = 0.0) -> "OpResult":
        self = super().__new__(cls, inode_id)
        self.rpcs = rpcs
        self.retries = retries
        self.latency_us = latency_us
        return self

    @property
    def inode_id(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return (f"OpResult(inode_id={int(self)}, rpcs={self.rpcs}, "
                f"retries={self.retries}, latency_us={self.latency_us})")

    def to_wire(self) -> dict:
        """JSON-safe encoding for the live wire protocol (see
        ``repro/runtime/wire.py``; format pinned by the golden-file test)."""
        return {"inode_id": int(self), "rpcs": self.rpcs,
                "retries": self.retries, "latency_us": self.latency_us}

    @classmethod
    def from_wire(cls, payload: dict) -> "OpResult":
        return cls(payload["inode_id"], rpcs=payload.get("rpcs", 0),
                   retries=payload.get("retries", 0),
                   latency_us=payload.get("latency_us", 0.0))


@dataclasses.dataclass(frozen=True)
class StatResult:
    """What objstat/dirstat return to the application."""

    path: str
    id: int
    kind: EntryKind
    size: int
    ctime: float
    mtime: float
    link_count: int
    entry_count: int
    permission: Permission

    @property
    def is_dir(self) -> bool:
        return self.kind is EntryKind.DIRECTORY


@dataclasses.dataclass(frozen=True)
class ResolvedPath:
    """Result of path resolution: the directory id the final component lives
    in, plus the aggregated permission mask along the prefix."""

    parent_id: int
    name: str
    permission: Permission
    depth: int


def make_stat(path: str, attr: AttrMeta) -> StatResult:
    """Build a client-facing stat result from a TafDB attribute record."""
    return StatResult(
        path=path,
        id=attr.id,
        kind=attr.kind,
        size=attr.size,
        ctime=attr.ctime,
        mtime=attr.mtime,
        link_count=attr.link_count,
        entry_count=attr.entry_count,
        permission=attr.permission,
    )
