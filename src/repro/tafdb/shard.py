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
folds deltas into the primary attribute row under a latch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TransactionAbort
from repro.tafdb.rows import AttrDelta, Dirent, Row, RowKey, RowValue, attr_key
from repro.types import AttrMeta

#: Lock owner used by the compactor's latch.
_COMPACTOR = "__compactor__"


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
        self._rows: Dict[RowKey, Row] = {}
        self._children: Dict[int, Set[str]] = {}
        self._deltas: Dict[int, Set[int]] = {}
        self._locks: Dict[RowKey, str] = {}
        self._staged: Dict[str, List[WriteIntent]] = {}
        # Counters for the bench harness.
        self.aborts = 0
        self.commits = 0
        self.compactions = 0
        #: Abort counts keyed by conflict reason ("lock held", "exists",
        #: "missing", "version") — surfaced in trace breakdowns.
        self.abort_reasons: Dict[str, int] = {}

    # -- reads --------------------------------------------------------------

    def read(self, key: RowKey) -> Optional[Row]:
        row = self._rows.get(key)
        return row.snapshot() if row is not None else None

    def scan_children(self, pid: int, limit: Optional[int] = None,
                      start_after: Optional[str] = None) -> List[Tuple[str, Dirent]]:
        """Ordered page of (name, dirent) under directory ``pid`` (readdir)."""
        names = sorted(self._children.get(pid, ()))
        if start_after is not None:
            names = [n for n in names if n > start_after]
        if limit is not None:
            names = names[:limit]
        out = []
        for name in names:
            row = self._rows[RowKey(pid, name, 0)]
            assert isinstance(row.value, Dirent)
            out.append((name, row.value))
        return out

    def has_children(self, pid: int) -> bool:
        return bool(self._children.get(pid))

    def delta_count(self, dir_id: int) -> int:
        return len(self._deltas.get(dir_id, ()))

    def read_attrs_folded(self, dir_id: int) -> Optional[AttrMeta]:
        """Primary attribute row with all pending deltas folded in.

        This is the dirstat read path; its cost grows with the number of
        unfolded deltas — the trade-off §5.2.1 calls out.
        """
        primary = self._rows.get(attr_key(dir_id))
        if primary is None:
            return None
        attrs = primary.value.copy()
        for ts in sorted(self._deltas.get(dir_id, ())):
            delta_row = self._rows[RowKey(dir_id, attr_key(dir_id).name, ts)]
            delta_row.value.apply_to(attrs)
        return attrs

    # -- transactions ---------------------------------------------------------

    def prepare(self, txn_id: str, intents: List[WriteIntent]) -> None:
        """Validate expectations and lock every intent's row.

        Raises :class:`TransactionAbort` on any conflict, releasing whatever
        this call had locked (all-or-nothing prepare).
        """
        if txn_id in self._staged:
            raise TransactionAbort("txn already prepared on this shard", None)
        acquired: List[RowKey] = []
        try:
            for intent in intents:
                holder = self._locks.get(intent.key)
                if holder is not None and holder != txn_id:
                    raise TransactionAbort("lock held", intent.key)
                row = self._rows.get(intent.key)
                if intent.kind == "insert":
                    if row is not None:
                        raise TransactionAbort("exists", intent.key)
                else:
                    if row is None:
                        raise TransactionAbort("missing", intent.key)
                    if (intent.expect_version is not None
                            and row.version != intent.expect_version):
                        raise TransactionAbort("version", intent.key)
                if holder is None:
                    self._locks[intent.key] = txn_id
                    acquired.append(intent.key)
        except TransactionAbort as exc:
            self.aborts += 1
            self.abort_reasons[exc.reason] = \
                self.abort_reasons.get(exc.reason, 0) + 1
            for key in acquired:
                del self._locks[key]
            raise
        self._staged[txn_id] = list(intents)

    def commit(self, txn_id: str) -> None:
        intents = self._staged.pop(txn_id, None)
        if intents is None:
            raise TransactionAbort("commit of unprepared txn", None)
        for intent in intents:
            self._apply(intent)
        self._release(txn_id)
        self.commits += 1

    def abort(self, txn_id: str) -> None:
        self._staged.pop(txn_id, None)
        self._release(txn_id)

    def execute(self, txn_id: str, intents: List[WriteIntent]) -> None:
        """Single-shard one-shot transaction (prepare + commit, one RPC)."""
        self.prepare(txn_id, intents)
        self.commit(txn_id)

    def _release(self, txn_id: str) -> None:
        for key in [k for k, owner in self._locks.items() if owner == txn_id]:
            del self._locks[key]

    def _apply(self, intent: WriteIntent) -> None:
        key = intent.key
        if intent.kind == "delete":
            del self._rows[key]
            self._unindex(key)
            return
        old = self._rows.get(key)
        version = old.version + 1 if old is not None else 1
        self._rows[key] = Row(key, intent.value, version)
        if old is None:
            self._index(key)

    def install(self, key: RowKey, value: RowValue, version: int = 1) -> None:
        """Put a row in place outside the transaction path (bulk loading).

        Takes no txn id, lock or staged intent and counts no commit.
        Replacing an existing row keeps its place in insertion order, so a
        loader that folds n updates into one install with ``version + n``
        leaves the shard exactly as n transactional updates would.
        """
        if key not in self._rows:
            self._index(key)
        self._rows[key] = Row(key, value, version)

    def _index(self, key: RowKey) -> None:
        if key.is_delta:
            self._deltas.setdefault(key.pid, set()).add(key.ts)
        elif not key.is_attr:
            self._children.setdefault(key.pid, set()).add(key.name)

    def _unindex(self, key: RowKey) -> None:
        if key.is_delta:
            bucket = self._deltas.get(key.pid)
            if bucket is not None:
                bucket.discard(key.ts)
                if not bucket:
                    del self._deltas[key.pid]
        elif not key.is_attr:
            bucket = self._children.get(key.pid)
            if bucket is not None:
                bucket.discard(key.name)
                if not bucket:
                    del self._children[key.pid]

    def fold_direct(self, dir_id: int, delta: AttrDelta) -> bool:
        """Apply one attribute delta in place, bypassing the transaction path.

        This is the single-shard *atomic primitive* of CFS/InfiniFS
        (§3.3/§5.2.1 discussion): it never aborts, but the serving layer
        serialises concurrent callers with a latch, so hot directories
        serialise instead of thrashing with retries.  Returns False when an
        in-flight transaction holds the row (caller should retry shortly).
        """
        key = attr_key(dir_id)
        row = self._rows.get(key)
        if row is None:
            return False
        if self._locks.get(key) is not None:
            return False
        attrs = row.value.copy()
        delta.apply_to(attrs)
        self._rows[key] = Row(key, attrs, row.version + 1)
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

        Takes the compactor latch on the primary row; if an in-flight
        transaction holds it the compaction is skipped this round (returns 0)
        — it will catch up on the next pass.  Returns the number of deltas
        folded.
        """
        pending = self._deltas.get(dir_id)
        if not pending:
            return 0
        primary_key = attr_key(dir_id)
        primary = self._rows.get(primary_key)
        if primary is None:
            # Directory was removed; orphaned deltas are garbage-collected.
            return self._drop_deltas(dir_id)
        if self._locks.get(primary_key) is not None:
            return 0
        self._locks[primary_key] = _COMPACTOR
        try:
            attrs = primary.value.copy()
            timestamps = sorted(pending)
            for ts in timestamps:
                key = RowKey(dir_id, primary_key.name, ts)
                self._rows[key].value.apply_to(attrs)
                del self._rows[key]
                self._unindex(key)
            self._rows[primary_key] = Row(primary_key, attrs, primary.version + 1)
            self.compactions += 1
            return len(timestamps)
        finally:
            del self._locks[primary_key]

    def compact_all(self) -> int:
        """Compact every directory with pending deltas; returns deltas folded."""
        folded = 0
        for dir_id in list(self._deltas.keys()):
            folded += self.compact(dir_id)
        return folded

    def _drop_deltas(self, dir_id: int) -> int:
        dropped = 0
        for ts in sorted(self._deltas.get(dir_id, set()).copy()):
            key = RowKey(dir_id, attr_key(dir_id).name, ts)
            if self._locks.get(key) is None:
                del self._rows[key]
                self._unindex(key)
                dropped += 1
        return dropped

    # -- stats -----------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def pending_delta_rows(self) -> int:
        return sum(len(v) for v in self._deltas.values())

    @property
    def dirs_with_deltas(self) -> List[int]:
        return list(self._deltas.keys())
