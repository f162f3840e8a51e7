"""The per-directory ShardState against the flat-row shard it replaced.

Seeded random sequences of installs, transactions, direct folds,
compactions, reads, folded attribute reads and paged scans run on a
:class:`~repro.tafdb.shard.ShardState` and on ``tests/oracle.py``'s
:class:`RefShardState`.  After every step both must have returned the same
thing (rows, values, versions, abort reasons and keys) and hold the same
rows, locks, counters and compactor order.  Deltas record the order they
are folded in, so folding out of timestamp order shows even though the
folded sums commute.
"""

import dataclasses
import random
from collections import Counter

from repro.errors import TransactionAbort
from repro.paths import ATTR_SENTINEL
from repro.tafdb.rows import AttrDelta, Dirent, RowKey
from repro.tafdb.shard import ShardState, WriteIntent
from repro.types import AttrMeta, EntryKind, Permission
from tests.oracle import RefRowKey, RefShardState

SEQUENCES = 240
PIDS = (1, 2, 3)
NAMES = ("a", "b", "c", "d", "e", "f")
TIMESTAMPS = range(1, 40)

#: Tags of the deltas folded by the last store call, in fold order.
_FOLDS = []


@dataclasses.dataclass(frozen=True)
class _TracedDelta(AttrDelta):
    """A delta that logs when it is folded."""

    tag: int = 0

    def apply_to(self, attrs) -> None:
        _FOLDS.append(self.tag)
        super().apply_to(attrs)


class _Gen:
    """Random keys, values and intents for one sequence."""

    def __init__(self, rng):
        self.rng = rng
        self.tags = 0

    def attrs(self, entry_id, kind):
        rng = self.rng
        return AttrMeta(id=entry_id, kind=kind, size=rng.randrange(100),
                        ctime=float(rng.randrange(5)),
                        mtime=float(rng.randrange(5)),
                        link_count=rng.randrange(4),
                        entry_count=rng.randrange(9),
                        owner=rng.choice(("root", "u1")),
                        permission=rng.choice(list(Permission)))

    def dirent(self):
        rng = self.rng
        entry_id = rng.randrange(10, 60)
        permission = rng.choice((Permission.ALL, Permission.READ))
        if rng.random() < 0.4:
            return Dirent(entry_id, EntryKind.DIRECTORY, permission)
        return Dirent(entry_id, EntryKind.OBJECT, permission,
                      self.attrs(entry_id, EntryKind.OBJECT))

    def delta(self):
        rng = self.rng
        self.tags += 1
        return _TracedDelta(link_delta=rng.randrange(-1, 2),
                            entry_delta=rng.randrange(-1, 2),
                            size_delta=rng.randrange(-5, 6),
                            mtime=float(rng.randrange(8)), tag=self.tags)

    def key(self):
        """``(kind, (pid, name, ts))`` of a dirent, attribute or delta row."""
        rng = self.rng
        pid = rng.choice(PIDS)
        roll = rng.random()
        if roll < 0.5:
            return "dirent", (pid, rng.choice(NAMES), 0)
        if roll < 0.75:
            return "attr", (pid, ATTR_SENTINEL, 0)
        return "delta", (pid, ATTR_SENTINEL, rng.choice(TIMESTAMPS))

    def value(self, kind, fields):
        if kind == "dirent":
            return self.dirent()
        if kind == "attr":
            return self.attrs(fields[0], EntryKind.DIRECTORY)
        return self.delta()

    def intents(self):
        """1-3 intents; deltas are only ever inserted, as the proxies do."""
        rng = self.rng
        out = []
        for _ in range(rng.randint(1, 3)):
            kind, fields = self.key()
            op = "insert" if kind == "delta" else rng.choice(
                ("insert", "update", "update", "delete"))
            expect = (None if op == "insert"
                      else rng.choice((None, 1, 2, 3)))
            value = None if op == "delete" else self.value(kind, fields)
            out.append((fields, op, value, expect))
        return out


def _intents(specs, key_type):
    return [WriteIntent(key_type(*fields), op, value, expect)
            for fields, op, value, expect in specs]


def _plain(value):
    """Keys of either store as plain tuples; everything else as is."""
    if isinstance(value, (RowKey, RefRowKey)):
        return (value.pid, value.name, value.ts)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if hasattr(value, "key") and hasattr(value, "version"):  # a read row
        return ("row", _plain(value.key), value.value, value.version)
    return value


def _call(fn, *args):
    """(result, fold order) of one store call; an abort is a result."""
    del _FOLDS[:]
    try:
        result = ("ok", _plain(fn(*args)))
    except TransactionAbort as exc:
        result = ("abort", exc.reason, _plain(exc.key))
    return result, list(_FOLDS)


def _rows_of_ref(ref):
    return {_plain(key): (row.value, row.version)
            for key, row in ref._rows.items()}


def _rows_of_new(new):
    return {_plain(key): (value, version)
            for key, value, version in new.rows()}


def _assert_same_state(new, ref, where):
    assert _rows_of_new(new) == _rows_of_ref(ref), where
    assert ({_plain(k): v for k, v in new._locks.items()}
            == {_plain(k): v for k, v in ref._locks.items()}), where
    assert (new.commits, new.aborts, new.compactions) == \
        (ref.commits, ref.aborts, ref.compactions), where
    assert new.abort_reasons == ref.abort_reasons, where
    assert new.row_count == ref.row_count, where
    assert new.pending_delta_rows == ref.pending_delta_rows, where
    assert new.dirs_with_deltas == ref.dirs_with_deltas, where
    for pid in PIDS:
        assert new.has_children(pid) == ref.has_children(pid), where
        assert new.delta_count(pid) == ref.delta_count(pid), where


def run_sequence(seed, steps=60):
    """Drive both stores through one seeded sequence; returns a Counter of
    the outcomes it reached."""
    rng = random.Random(seed)
    gen = _Gen(rng)
    new, ref = ShardState(), RefShardState()
    outcomes = Counter()
    txns = 0
    prepared = []
    for step in range(steps):
        roll = rng.random()
        where = f"seed {seed} step {step}"
        if roll < 0.14:
            kind, fields = gen.key()
            value = gen.value(kind, fields)
            version = rng.randint(1, 4)
            calls = [(new.install, RowKey(*fields), value, version),
                     (ref.install, RefRowKey(*fields), value, version)]
        elif roll < 0.34:
            if prepared and rng.random() < 0.15:
                txn = rng.choice(prepared)  # re-prepare: refused
            else:
                txns += 1
                txn = f"t{txns}"
            specs = gen.intents()
            verb = "prepare" if rng.random() < 0.6 else "execute"
            calls = [(getattr(new, verb), txn, _intents(specs, RowKey)),
                     (getattr(ref, verb), txn, _intents(specs, RefRowKey))]
            if verb == "prepare":
                prepared.append(txn)
        elif roll < 0.46:
            verb = rng.choice(("commit", "abort"))
            if prepared and rng.random() < 0.85:
                txn = prepared.pop(rng.randrange(len(prepared)))
            else:
                txn = f"t{txns + 1}"  # never prepared
            calls = [(getattr(new, verb), txn), (getattr(ref, verb), txn)]
        elif roll < 0.52:
            pid, delta = rng.choice(PIDS), gen.delta()
            calls = [(new.fold_direct, pid, delta),
                     (ref.fold_direct, pid, delta)]
        elif roll < 0.62:
            pid = rng.choice(PIDS)
            calls = ([(new.compact_all,), (ref.compact_all,)]
                     if rng.random() < 0.3 else
                     [(new.compact, pid), (ref.compact, pid)])
        elif roll < 0.76:
            _kind, fields = gen.key()
            calls = [(new.read, RowKey(*fields)),
                     (ref.read, RefRowKey(*fields))]
        elif roll < 0.86:
            pid = rng.choice(PIDS)
            calls = [(new.read_attrs_folded, pid),
                     (ref.read_attrs_folded, pid)]
        else:
            pid = rng.choice(PIDS)
            limit = rng.choice((None, 1, 2, 4))
            start_after = rng.choice((None, "a", "c", "cc", "f"))
            calls = [(new.scan_children, pid, limit, start_after),
                     (ref.scan_children, pid, limit, start_after)]
        (fn_new, *args_new), (fn_ref, *args_ref) = calls
        got = _call(fn_new, *args_new)
        want = _call(fn_ref, *args_ref)
        assert got == want, where
        _assert_same_state(new, ref, where)
        (result, *_), folds = got
        if result == "abort":
            outcomes[got[0][1]] += 1
        elif fn_ref.__name__ == "scan_children" and len(got[0][1]) > 1:
            outcomes["page of 2+"] += 1
        if len(folds) > 1:
            outcomes["fold of 2+ deltas"] += 1
    for txn in prepared:
        new.abort(txn)
        ref.abort(txn)
    _assert_same_state(new, ref, f"seed {seed} end")
    assert not new._locks
    outcomes["compactions"] += new.compactions
    return outcomes


def test_shard_matches_flat_row_reference():
    outcomes = Counter()
    for seed in range(SEQUENCES):
        outcomes += run_sequence(seed)
    # The sequences are not vacuous: every abort reason occurs, scans
    # return pages and folds see several deltas.
    assert set(outcomes) >= {
        "lock held", "exists", "missing", "version",
        "txn already prepared on this shard", "commit of unprepared txn",
        "page of 2+", "fold of 2+ deltas", "compactions"}, outcomes
