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
from typing import Dict, Iterator, List, TextIO, Tuple

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
