"""Operation trace recording and replay.

Production studies (§3) start from traces; this module lets any workload be
captured to a portable JSONL trace and replayed later — against a different
system, a different configuration, or a scaled cluster — with the same
per-client ordering.

Format: one JSON object per line, ``{"client": int, "op": str,
"args": [...]}``.  Replay preserves per-client order; cross-client
interleaving is up to the simulator (as in any real system).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, TextIO, Tuple

from repro.ops import OP_NAMES


class TraceRecorder:
    """Wraps a workload, recording every (client, op, args) it emits."""

    def __init__(self, workload):
        self.workload = workload
        self.num_clients = workload.num_clients
        self.records: List[Tuple[int, str, tuple]] = []

    def setup(self, system) -> None:
        self.workload.setup(system)

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        for op, args in self.workload.client_ops(cid):
            self.records.append((cid, op, args))
            yield (op, args)

    def dump(self, handle: TextIO) -> int:
        """Write the captured trace as JSONL; returns the line count."""
        count = 0
        for cid, op, args in self.records:
            handle.write(json.dumps(
                {"client": cid, "op": op, "args": list(args)}) + "\n")
            count += 1
        return count


class TraceWorkload:
    """Replays a JSONL trace as a workload."""

    def __init__(self, lines: List[str]):
        self._per_client: Dict[int, List[Tuple[str, tuple]]] = {}
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                cid = int(record["client"])
                op = record["op"]
                args = tuple(record["args"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"bad trace line {line_no}: {exc}") from exc
            if op not in OP_NAMES:
                raise ValueError(f"bad trace line {line_no}: unknown op {op!r}")
            self._per_client.setdefault(cid, []).append((op, args))
        if not self._per_client:
            raise ValueError("empty trace")
        self.num_clients = max(self._per_client) + 1

    @classmethod
    def load(cls, handle: TextIO) -> "TraceWorkload":
        return cls(handle.readlines())

    def setup(self, system) -> None:
        """Replay assumes the namespace is pre-populated by the caller (the
        trace contains only operations, like a production audit log)."""

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        yield from self._per_client.get(cid, [])

    @property
    def total_ops(self) -> int:
        return sum(len(ops) for ops in self._per_client.values())

    def describe(self) -> str:
        return (f"trace clients={len(self._per_client)} "
                f"ops={self.total_ops}")


# -- typed replay (the sim-vs-live agreement harness) ------------------------
#
# A trace replayed *sequentially* through two deployments of the same system
# must agree op by op: same successes, same error types, same allocated ids.
# These helpers run one (op, args) list through anything with the
# MantleClient surface — the simulated client or the live TCP client — and
# normalise each outcome so the two transcripts are directly comparable
# (wallclock timestamps and latencies are excluded; they legitimately
# differ between a simulated clock and a real one).

def typed_ops(records: List[Tuple[str, tuple]]):
    """Convert ``(op_name, args)`` trace records into typed Ops."""
    from repro.ops import make_op

    return [make_op(name, *args) for name, args in records]


def normalize_outcome(value: Any) -> Any:
    """Reduce an op result to its time-independent observable content."""
    from repro.types import OpResult, StatResult

    if isinstance(value, OpResult):
        return {"inode_id": value.inode_id}
    if isinstance(value, StatResult):
        return {"path": value.path, "id": value.id,
                "kind": value.kind.value, "size": value.size,
                "link_count": value.link_count,
                "entry_count": value.entry_count,
                "permission": int(value.permission)}
    if isinstance(value, list):
        return [normalize_outcome(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return {"inode_id": value}
    return value


def replay_typed(client, ops) -> List[Dict[str, Any]]:
    """Run typed ops sequentially through a client; never raises.

    Returns one record per op: ``{"op", "ok", "result"}`` on success or
    ``{"op", "ok": False, "error": <exception class name>}`` on failure.
    """
    from repro.errors import MetadataError

    transcript: List[Dict[str, Any]] = []
    for op in ops:
        try:
            result = client.perform(op)
        except MetadataError as exc:
            transcript.append({"op": op.name, "ok": False,
                               "error": type(exc).__name__})
        else:
            transcript.append({"op": op.name, "ok": True,
                               "result": normalize_outcome(result)})
    return transcript


def snapshot_namespace(client, root: str = "/") -> Dict[str, Any]:
    """Walk the namespace through the client API into a comparable map.

    Keys are absolute paths; values are the normalised stat of each entry.
    Two deployments that processed the same trace must produce identical
    snapshots (ids included — both allocate sequentially from the root id).
    """
    from repro.errors import MetadataError

    snapshot: Dict[str, Any] = {}
    stack = [root]
    while stack:
        directory = stack.pop()
        for name in sorted(client.listdir(directory)):
            path = directory.rstrip("/") + "/" + name
            try:
                stat = client.stat(path)
            except MetadataError as exc:
                snapshot[path] = {"error": type(exc).__name__}
                continue
            snapshot[path] = normalize_outcome(stat)
            if stat.kind.value == "dir":
                stack.append(path)
    return snapshot
