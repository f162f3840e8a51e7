"""Row model of the TafDB metadata table.

Two halves: the values the table's API speaks in (:class:`RowKey`,
:class:`Row`, :class:`Dirent`, :class:`AttrDelta` and
:class:`~repro.types.AttrMeta`), and the slotted records a shard stores
(:class:`DirRecord`, :class:`ObjectRecord`, :class:`AttrRecord`,
:class:`DeltaRecord`).  A stored record is never handed out: every read
builds fresh values from it, so no reader can alias stored state and a
shard may update its records in place.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Union

from repro.paths import ATTR_SENTINEL
from repro.types import AttrMeta, EntryKind, Permission


class RowKey(NamedTuple):
    """Composite primary key: (parent id, name, transaction timestamp).

    ``ts == 0`` marks a primary record; delta records carry the creating
    transaction's unique timestamp (Figure 8).  A tuple, so hashing and
    ordering run in C.
    """

    pid: int
    name: str
    ts: int = 0

    @property
    def is_delta(self) -> bool:
        return self.name == ATTR_SENTINEL and self.ts != 0

    @property
    def is_attr(self) -> bool:
        return self.name == ATTR_SENTINEL


def dirent_key(pid: int, name: str) -> RowKey:
    """Key of the dirent row for entry ``name`` under directory ``pid``."""
    return RowKey(pid, name, 0)


def attr_key(dir_id: int) -> RowKey:
    """Key of a directory's primary attribute row (co-located with its
    children because the key's pid is the directory's own id)."""
    return RowKey(dir_id, ATTR_SENTINEL, 0)


def delta_key(dir_id: int, ts: int) -> RowKey:
    """Key of one delta record for directory ``dir_id``."""
    if ts == 0:
        raise ValueError("delta timestamps must be non-zero")
    return RowKey(dir_id, ATTR_SENTINEL, ts)


@dataclasses.dataclass(frozen=True)
class Dirent:
    """Access metadata stored in a dirent row.

    For objects, ``attrs`` carries the full attribute record inline; for
    directories ``attrs`` is None and attributes live in the attribute row.
    Inline attributes describe the entry itself: same id, same kind.
    """

    id: int
    kind: EntryKind
    permission: Permission = Permission.ALL
    attrs: Optional[AttrMeta] = None

    def __post_init__(self):
        attrs = self.attrs
        if attrs is not None and (attrs.id != self.id
                                  or attrs.kind is not self.kind):
            raise ValueError(
                f"inline attributes of {self.kind.value} {self.id} describe "
                f"{attrs.kind.value} {attrs.id}")

    @property
    def is_dir(self) -> bool:
        return self.kind is EntryKind.DIRECTORY


@dataclasses.dataclass(frozen=True)
class AttrDelta:
    """One conflict-free out-of-place attribute update (§5.2.1)."""

    link_delta: int = 0
    entry_delta: int = 0
    size_delta: int = 0
    mtime: float = 0.0

    def apply_to(self, attrs) -> None:
        """Fold this delta into a mutable attribute record (an
        :class:`~repro.types.AttrMeta` or a stored :class:`AttrRecord`)."""
        attrs.link_count += self.link_delta
        attrs.entry_count += self.entry_delta
        attrs.size += self.size_delta
        if self.mtime > attrs.mtime:
            attrs.mtime = self.mtime


#: What a row's value may be.
RowValue = Union[Dirent, AttrMeta, AttrDelta]


@dataclasses.dataclass(slots=True)
class Row:
    """A row as a read returns it: key, value and optimistic-concurrency
    version.  Built fresh by every read."""

    key: RowKey
    value: RowValue
    version: int = 1


# -- stored records ------------------------------------------------------------
#
# Each record holds one row's value and its version in slots; ``value()``
# builds the row's public value.


class DirRecord:
    """A dirent row without inline attributes (a directory's)."""

    __slots__ = ("version", "id", "kind", "permission")

    def __init__(self, version: int, id: int, kind: EntryKind,
                 permission: Permission = Permission.ALL):
        self.version = version
        self.id = id
        self.kind = kind
        self.permission = permission

    def value(self) -> Dirent:
        return Dirent(self.id, self.kind, self.permission)


class AttrRecord:
    """A directory's attribute row: the :class:`AttrMeta` fields and the
    version.  Deltas fold into it in place (``AttrDelta.apply_to``)."""

    __slots__ = ("version", "id", "kind", "size", "ctime", "mtime",
                 "link_count", "entry_count", "owner", "permission")

    def __init__(self, version: int, id: int, kind: EntryKind,
                 size: int = 0, ctime: float = 0.0, mtime: float = 0.0,
                 link_count: int = 0, entry_count: int = 0,
                 owner: str = "root",
                 permission: Permission = Permission.ALL):
        self.version = version
        self.id = id
        self.kind = kind
        self.size = size
        self.ctime = ctime
        self.mtime = mtime
        self.link_count = link_count
        self.entry_count = entry_count
        self.owner = owner
        self.permission = permission

    def attrs(self) -> AttrMeta:
        return AttrMeta(self.id, self.kind, self.size, self.ctime,
                        self.mtime, self.link_count, self.entry_count,
                        self.owner, self.permission)

    value = attrs


class ObjectRecord(AttrRecord):
    """An object's dirent row: its inline attributes (which carry the
    entry's id and kind), the dirent's own permission and the version, in
    one record."""

    __slots__ = ("dirent_permission",)

    def value(self) -> Dirent:
        return Dirent(self.id, self.kind, self.dirent_permission,
                      self.attrs())


class DeltaRecord:
    """One delta row: the (frozen, so shareable) delta and its version."""

    __slots__ = ("version", "delta")

    def __init__(self, version: int, delta: AttrDelta):
        self.version = version
        self.delta = delta

    def value(self) -> AttrDelta:
        return self.delta


#: What a shard stores per row.
Record = Union[DirRecord, AttrRecord, ObjectRecord, DeltaRecord]


def object_record(obj_id: int, size: int) -> ObjectRecord:
    """A new object's dirent record at version 1, as the bulk loader
    writes it: default attributes and permissions."""
    record = ObjectRecord(1, obj_id, EntryKind.OBJECT, size)
    record.dirent_permission = Permission.ALL
    return record


def to_record(value: RowValue, version: int) -> Record:
    """The stored form of ``value`` at ``version``."""
    if isinstance(value, Dirent):
        attrs = value.attrs
        if attrs is None:
            return DirRecord(version, value.id, value.kind, value.permission)
        record = ObjectRecord(version, attrs.id, attrs.kind, attrs.size,
                              attrs.ctime, attrs.mtime, attrs.link_count,
                              attrs.entry_count, attrs.owner,
                              attrs.permission)
        record.dirent_permission = value.permission
        return record
    if isinstance(value, AttrMeta):
        return AttrRecord(version, value.id, value.kind, value.size,
                          value.ctime, value.mtime, value.link_count,
                          value.entry_count, value.owner, value.permission)
    if isinstance(value, AttrDelta):
        return DeltaRecord(version, value)
    raise TypeError(f"cannot store a {type(value).__name__} row")
