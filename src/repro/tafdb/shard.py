"""One TafDB shard: versioned rows, row locks, optimistic transactions,
delta records and compaction.

A shard is pure data-structure code (no simulation imports) so its
concurrency semantics can be unit-tested directly; the simulated
:class:`repro.tafdb.server.DBServer` wraps it with CPU/RPC costs.

Concurrency model
-----------------
Proxies read versioned rows, compute new values, and submit *write intents*
carrying expectations (``insert`` expects absence, ``update``/``delete``
expect a version).  ``prepare`` try-locks every intent's row and validates
expectations; any conflict raises :class:`TransactionAbort` and the caller
retries with backoff.  ``commit`` applies staged intents and releases locks.
This optimistic first-writer-wins discipline is what collapses under the
paper's "all conflict" workloads (Figure 4b) — every concurrent
read-modify-write of a hot parent's attribute row aborts all but one
transaction per round.

Delta records (§5.2.1) sidestep the conflict entirely: each update inserts a
uniquely-keyed ``(dir_id, '/_ATTR', ts)`` row, and :meth:`ShardState.compact`
folds deltas into the primary attribute row.

Storage is per directory, as HopsFS partitions inodes by parent: a
directory's dirent rows sit in one ``name -> record`` dict, its attribute
row and its delta rows are held under its id, and no key object is kept
per row (see :mod:`repro.tafdb.rows` for the records).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TransactionAbort
from repro.paths import ATTR_SENTINEL
from repro.tafdb.rows import (
    AttrDelta,
    AttrRecord,
    DeltaRecord,
    Dirent,
    Record,
    Row,
    RowKey,
    RowValue,
    attr_key,
    to_record,
)
from repro.types import AttrMeta


@dataclasses.dataclass(frozen=True)
class WriteIntent:
    """One staged mutation with its optimistic expectation.

    ``kind`` is one of:

    * ``"insert"`` — row must not exist (blind inserts of dirents and deltas);
    * ``"update"`` — row must exist; if ``expect_version`` is not None it must
      match the stored version;
    * ``"delete"`` — same expectations as update.
    """

    key: RowKey
    kind: str
    value: Optional[RowValue] = None
    expect_version: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("insert", "update", "delete"):
            raise ValueError(f"unknown intent kind {self.kind!r}")
        if self.kind in ("insert", "update") and self.value is None:
            raise ValueError(f"{self.kind} intent needs a value")


class ShardState:
    """In-memory storage and transaction machinery for one shard."""

    def __init__(self, shard_id: int = 0):
        self.shard_id = shard_id
        #: pid -> {name: dirent record}; a directory without entries has
        #: no dict.
        self._entries: Dict[int, Dict[str, Record]] = {}
        #: dir id -> its attribute record.
        self._attrs: Dict[int, AttrRecord] = {}
        #: dir id -> {ts: delta record}, in the order the directories
        #: gained pending deltas (the compactor's order).
        self._deltas: Dict[int, Dict[int, DeltaRecord]] = {}
        self._locks: Dict[RowKey, str] = {}
        #: txn id -> (its intents, the keys its prepare locked).
        self._staged: Dict[str, Tuple[List[WriteIntent], List[RowKey]]] = {}
        # Counters for the bench harness.
        self.aborts = 0
        self.commits = 0
        self.compactions = 0
        #: Abort counts keyed by conflict reason ("lock held", "exists",
        #: "missing", "version") — surfaced in trace breakdowns.
        self.abort_reasons: Dict[str, int] = {}

    # -- storage ------------------------------------------------------------

    def _get(self, key: RowKey) -> Optional[Record]:
        pid, name, ts = key
        if name == ATTR_SENTINEL:
            if ts:
                pending = self._deltas.get(pid)
                return pending.get(ts) if pending is not None else None
            return self._attrs.get(pid)
        entries = self._entries.get(pid)
        if entries is None or ts:
            return None
        return entries.get(name)

    def _put(self, key: RowKey, record: Record) -> None:
        """Store ``record`` under ``key``; a replaced row keeps its place."""
        pid, name, ts = key
        if name == ATTR_SENTINEL:
            if not ts:
                self._attrs[pid] = record
                return
            container = self._deltas
            slot = ts
        elif ts:
            raise ValueError(f"dirent key {key!r} carries a timestamp")
        else:
            container = self._entries
            slot = name
        rows = container.get(pid)
        if rows is None:
            rows = container[pid] = {}
        rows[slot] = record

    def _pop(self, key: RowKey) -> None:
        """Remove ``key``'s row (KeyError when absent)."""
        pid, name, ts = key
        if name != ATTR_SENTINEL:
            container = self._entries
            slot = name
        elif ts:
            container = self._deltas
            slot = ts
        else:
            del self._attrs[pid]
            return
        rows = container[pid]
        del rows[slot]
        if not rows:
            del container[pid]

    def __contains__(self, key: RowKey) -> bool:
        return self._get(key) is not None

    def rows(self) -> Iterator[Tuple[RowKey, RowValue, int]]:
        """Every row as ``(key, value, version)``, in shard order:
        attribute rows, then each directory's dirents, then each
        directory's deltas, each in the order it was stored."""
        for dir_id, record in self._attrs.items():
            yield attr_key(dir_id), record.value(), record.version
        for pid, entries in self._entries.items():
            for name, record in entries.items():
                yield RowKey(pid, name, 0), record.value(), record.version
        for dir_id, pending in self._deltas.items():
            for ts, record in pending.items():
                yield (RowKey(dir_id, ATTR_SENTINEL, ts), record.value(),
                       record.version)

    # -- reads --------------------------------------------------------------

    def read(self, key: RowKey) -> Optional[Row]:
        record = self._get(key)
        if record is None:
            return None
        return Row(key, record.value(), record.version)

    def scan_children(self, pid: int, limit: Optional[int] = None,
                      start_after: Optional[str] = None) -> List[Tuple[str, Dirent]]:
        """Ordered page of (name, dirent) under directory ``pid`` (readdir)."""
        entries = self._entries.get(pid)
        if entries is None:
            return []
        names = sorted(entries)
        if start_after is not None:
            names = [n for n in names if n > start_after]
        if limit is not None:
            names = names[:limit]
        return [(name, entries[name].value()) for name in names]

    def has_children(self, pid: int) -> bool:
        return bool(self._entries.get(pid))

    def delta_count(self, dir_id: int) -> int:
        return len(self._deltas.get(dir_id, ()))

    def read_attrs_folded(self, dir_id: int) -> Optional[AttrMeta]:
        """Primary attribute row with all pending deltas folded in.

        This is the dirstat read path; its cost grows with the number of
        unfolded deltas — the trade-off §5.2.1 calls out.
        """
        primary = self._attrs.get(dir_id)
        if primary is None:
            return None
        attrs = primary.value()
        pending = self._deltas.get(dir_id)
        if pending:
            for ts in sorted(pending):
                pending[ts].delta.apply_to(attrs)
        return attrs

    # -- transactions ---------------------------------------------------------

    def prepare(self, txn_id: str, intents: List[WriteIntent]) -> None:
        """Validate expectations and lock every intent's row.

        Raises :class:`TransactionAbort` on any conflict, releasing whatever
        this call had locked (all-or-nothing prepare).
        """
        if txn_id in self._staged:
            raise TransactionAbort("txn already prepared on this shard", None)
        locks = self._locks
        acquired: List[RowKey] = []
        try:
            for intent in intents:
                key = intent.key
                holder = locks.get(key)
                if holder is not None and holder != txn_id:
                    raise TransactionAbort("lock held", key)
                record = self._get(key)
                if intent.kind == "insert":
                    if record is not None:
                        raise TransactionAbort("exists", key)
                else:
                    if record is None:
                        raise TransactionAbort("missing", key)
                    if (intent.expect_version is not None
                            and record.version != intent.expect_version):
                        raise TransactionAbort("version", key)
                if holder is None:
                    locks[key] = txn_id
                    acquired.append(key)
        except TransactionAbort as exc:
            self.aborts += 1
            self.abort_reasons[exc.reason] = \
                self.abort_reasons.get(exc.reason, 0) + 1
            self._release(acquired)
            raise
        self._staged[txn_id] = (list(intents), acquired)

    def commit(self, txn_id: str) -> None:
        staged = self._staged.pop(txn_id, None)
        if staged is None:
            raise TransactionAbort("commit of unprepared txn", None)
        intents, locked = staged
        for intent in intents:
            self._apply(intent)
        self._release(locked)
        self.commits += 1

    def abort(self, txn_id: str) -> None:
        staged = self._staged.pop(txn_id, None)
        if staged is not None:
            self._release(staged[1])

    def execute(self, txn_id: str, intents: List[WriteIntent]) -> None:
        """Single-shard one-shot transaction (prepare + commit, one RPC)."""
        self.prepare(txn_id, intents)
        self.commit(txn_id)

    def _release(self, keys: List[RowKey]) -> None:
        """Unlock the keys one prepare locked."""
        locks = self._locks
        for key in keys:
            del locks[key]

    def _apply(self, intent: WriteIntent) -> None:
        key = intent.key
        if intent.kind == "delete":
            self._pop(key)
            return
        old = self._get(key)
        version = old.version + 1 if old is not None else 1
        self._put(key, to_record(intent.value, version))

    def install(self, key: RowKey, value: RowValue, version: int = 1) -> None:
        """Put a row in place outside the transaction path (bulk loading).

        Takes no txn id, lock or staged intent and counts no commit.
        Replacing an existing row keeps its place in insertion order, so a
        loader that folds n updates into one install with ``version + n``
        leaves the shard exactly as n transactional updates would.
        """
        self._put(key, to_record(value, version))

    def install_record(self, key: RowKey, record: Record) -> None:
        """:meth:`install` of an already-built record (the bulk loader's
        path: no row value is built).  The shard owns ``record`` after."""
        self._put(key, record)

    def fold_direct(self, dir_id: int, delta: AttrDelta) -> bool:
        """Apply one attribute delta in place, bypassing the transaction path.

        This is the single-shard *atomic primitive* of CFS/InfiniFS
        (§3.3/§5.2.1 discussion): it never aborts, but the serving layer
        serialises concurrent callers with a latch, so hot directories
        serialise instead of thrashing with retries.  Returns False when an
        in-flight transaction holds the row (caller should retry shortly).
        """
        record = self._attrs.get(dir_id)
        if record is None:
            return False
        if attr_key(dir_id) in self._locks:
            return False
        delta.apply_to(record)
        record.version += 1
        self.commits += 1
        return True

    # -- lock introspection ---------------------------------------------------

    def is_locked(self, key: RowKey) -> bool:
        return key in self._locks

    def lock_owner(self, key: RowKey) -> Optional[str]:
        return self._locks.get(key)

    # -- delta compaction -------------------------------------------------------

    def compact(self, dir_id: int) -> int:
        """Fold every delta of ``dir_id`` into its primary attribute row.

        If an in-flight transaction holds the primary row the compaction is
        skipped this round (returns 0) — it will catch up on the next pass.
        A compaction runs to completion in one call, so it needs no latch
        of its own.  Returns the number of deltas folded.
        """
        pending = self._deltas.get(dir_id)
        if not pending:
            return 0
        primary = self._attrs.get(dir_id)
        if primary is None:
            # Directory was removed; orphaned deltas are garbage-collected.
            return self._drop_deltas(dir_id, pending)
        if attr_key(dir_id) in self._locks:
            return 0
        for ts in sorted(pending):
            pending[ts].delta.apply_to(primary)
        primary.version += 1
        del self._deltas[dir_id]
        self.compactions += 1
        return len(pending)

    def compact_all(self) -> int:
        """Compact every directory with pending deltas; returns deltas folded."""
        folded = 0
        for dir_id in list(self._deltas):
            folded += self.compact(dir_id)
        return folded

    def _drop_deltas(self, dir_id: int, pending: Dict[int, DeltaRecord]) -> int:
        """Drop the deltas of a removed directory that no transaction
        holds."""
        locks = self._locks
        dropped = 0
        for ts in list(pending):
            if RowKey(dir_id, ATTR_SENTINEL, ts) not in locks:
                del pending[ts]
                dropped += 1
        if not pending:
            del self._deltas[dir_id]
        return dropped

    # -- stats -----------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return (len(self._attrs) + self.pending_delta_rows
                + sum(len(entries) for entries in self._entries.values()))

    @property
    def pending_delta_rows(self) -> int:
        return sum(len(v) for v in self._deltas.values())

    @property
    def dirs_with_deltas(self) -> List[int]:
        return list(self._deltas)
