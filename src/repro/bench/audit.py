"""Cross-layer consistency auditing for Mantle deployments.

Mantle keeps directory access metadata twice — in every IndexNode replica
and in TafDB's dirent rows — and the design's correctness rests on the two
staying synchronized ("maintaining strong synchronization", §4).  The
auditor walks both layers and reports every divergence:

* a directory present in the IndexTable without its TafDB dirent row (or
  vice versa), or with a different id;
* a directory missing its TafDB attribute row;
* IndexNode replicas that disagree with the leader;
* leaked rename locks (entries still locked with no rename in flight);
* attribute counters that disagree with the actual child count.

Used by the soak test and available to users as a debugging tool.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.tafdb.rows import attr_key, dirent_key


@dataclasses.dataclass(frozen=True)
class Violation:
    """One detected inconsistency."""

    kind: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.detail}"


def _read_row(system, key):
    return system.tafdb.shard_for(key.pid).read(key)


def _scan_children(system, pid):
    return system.tafdb.shard_for(pid).scan_children(pid)


def _folded_attrs(system, dir_id):
    return system.tafdb.shard_for(dir_id).read_attrs_folded(dir_id)


def check_consistency(system, check_counts: bool = True,
                      allow_locks: bool = False) -> List[Violation]:
    """Audit one quiescent MantleSystem; returns all violations found.

    Run this only when no operations are in flight (mid-transaction states
    are legitimately divergent).
    """
    violations: List[Violation] = []
    leader = system.index_group.current_leader()
    if leader is None:
        return [Violation("no-leader", "raft group has no leader")]
    table = leader.state_machine.table

    # 1. Every IndexTable directory exists in TafDB with matching id.
    for meta in table.entries():
        row = _read_row(system, dirent_key(meta.pid, meta.name))
        if row is None:
            violations.append(Violation(
                "missing-dirent",
                f"dir {meta.pid}:{meta.name} (id {meta.id}) has no TafDB "
                "dirent row"))
        elif row.value.id != meta.id:
            violations.append(Violation(
                "id-mismatch",
                f"dir {meta.pid}:{meta.name}: IndexTable id {meta.id} vs "
                f"TafDB id {row.value.id}"))
        if _read_row(system, attr_key(meta.id)) is None:
            violations.append(Violation(
                "missing-attrs",
                f"dir id {meta.id} has no TafDB attribute row"))
        if meta.locked and not allow_locks:
            violations.append(Violation(
                "leaked-lock",
                f"dir {meta.pid}:{meta.name} still holds rename lock "
                f"owner={meta.lock_owner}"))

    # 2. Every TafDB directory dirent is known to the IndexTable.
    seen_dirs = {(m.pid, m.name) for m in table.entries()}
    pids = {system.root_id} | {m.id for m in table.entries()}
    for pid in pids:
        for name, dirent in _scan_children(system, pid):
            if dirent.is_dir and (pid, name) not in seen_dirs:
                violations.append(Violation(
                    "orphan-dirent",
                    f"TafDB dir {pid}:{name} (id {dirent.id}) missing from "
                    "IndexTable"))

    # 3. Replicas agree with the leader (after replication settles).
    leader_view = sorted((m.pid, m.name, m.id) for m in table.entries())
    for nid, node in system.index_group.nodes.items():
        if node is leader or node.host.crashed or node._stopped:
            continue
        replica_view = sorted((m.pid, m.name, m.id)
                              for m in node.state_machine.table.entries())
        if replica_view != leader_view:
            violations.append(Violation(
                "replica-divergence",
                f"replica {nid} has {len(replica_view)} dirs vs leader's "
                f"{len(leader_view)}"))

    # 4. Attribute entry counts match the actual children.
    if check_counts:
        for pid in pids:
            attrs = _folded_attrs(system, pid)
            if attrs is None:
                continue
            actual = len(_scan_children(system, pid))
            if attrs.entry_count != actual:
                violations.append(Violation(
                    "count-mismatch",
                    f"dir id {pid}: entry_count {attrs.entry_count} vs "
                    f"{actual} actual children"))
    return violations
