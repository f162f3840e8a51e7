"""Sim-vs-live agreement: one op trace, two runtimes, identical outcomes.

The same sequential trace is replayed through the simulated deployment
(``MantleClient`` over the DES kernel) and through a live asyncio cluster
(``LiveClient`` over real TCP to ``InProcessCluster``).  Agreement is
checked at two levels:

* **per-op transcripts** — every op must succeed on both sides or fail on
  both sides with the same exception type, and successful mutations must
  allocate the same inode ids (both deployments allocate sequentially
  above the root id);
* **final namespace snapshots** — a full walk through each client must
  yield the same paths, kinds, ids, permissions and entry counts.

Wallclock fields (latency, timestamps) are excluded by
``normalize_outcome`` — they are the one legitimate divergence between a
simulated clock and a real one.
"""

from typing import Any, Dict, List

import pytest

from repro.core.api import MantleClient
from repro.core.config import MantleConfig
from repro.errors import MetadataError
from repro.ops import make_op
from repro.runtime.client import LiveClient
from repro.runtime.live import InProcessCluster
from repro.types import OpResult, StatResult

#: The agreement trace: a namespace build-out plus every op type, including
#: ops that must *fail* identically (ENOENT, EEXIST, non-empty rmdir,
#: object-vs-dir confusion, rename of a missing source).
TRACE = [
    ("mkdir", ("/data",)),
    ("mkdir", ("/data/raw",)),
    ("mkdir", ("/data/cooked",)),
    ("mkdir", ("/data",)),                       # EEXIST
    ("mkdir", ("/nope/child",)),                 # ENOENT parent
    ("create", ("/data/raw/part-0",)),
    ("create", ("/data/raw/part-1",)),
    ("create", ("/data/raw/part-0",)),           # EEXIST
    ("objstat", ("/data/raw/part-0",)),
    ("objstat", ("/data/raw/part-9",)),          # ENOENT
    ("dirstat", ("/data/raw",)),
    ("dirstat", ("/data/raw/part-0",)),          # object, not dir
    ("readdir", ("/data/raw",)),
    ("readdir", ("/data/missing",)),             # ENOENT
    ("dirrename", ("/data/cooked", "/data/done")),
    ("dirrename", ("/data/cooked", "/data/again")),  # ENOENT (just moved)
    ("mkdir", ("/data/done/sub",)),
    ("rmdir", ("/data/done",)),                  # ENOTEMPTY
    ("rmdir", ("/data/done/sub",)),
    ("setattr", ("/data/done", 5)),              # READ|EXECUTE mask
    ("mkdir", ("/data/done/blocked",)),          # EACCES (no WRITE bit)
    ("delete", ("/data/raw/part-1",)),
    ("delete", ("/data/raw/part-1",)),           # ENOENT
    ("readdir", ("/data",)),
    ("readdir", ("/",)),
]


def normalize_outcome(value: Any) -> Any:
    """Reduce an op result to its time-independent observable content."""
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


def replay_typed(client) -> List[Dict[str, Any]]:
    """Run :data:`TRACE` sequentially through a client; never raises.

    Returns one record per op: ``{"op", "ok", "result"}`` on success or
    ``{"op", "ok": False, "error": <exception class name>}`` on failure.
    """
    transcript: List[Dict[str, Any]] = []
    for name, args in TRACE:
        op = make_op(name, *args)
        try:
            result = client.perform(op)
        except MetadataError as exc:
            transcript.append({"op": op.name, "ok": False,
                               "error": type(exc).__name__})
        else:
            transcript.append({"op": op.name, "ok": True,
                               "result": normalize_outcome(result)})
    return transcript


def snapshot_namespace(client) -> Dict[str, Any]:
    """Walk the namespace through the client API into a comparable map.

    Keys are absolute paths; values are the normalised stat of each entry.
    Two deployments that processed the same trace must produce identical
    snapshots (ids included — both allocate sequentially from the root id).
    """
    snapshot: Dict[str, Any] = {}
    stack = ["/"]
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


def _sim_transcript_and_snapshot():
    with MantleClient(MantleConfig.small()) as client:
        transcript = replay_typed(client)
        snapshot = snapshot_namespace(client)
    return transcript, snapshot


def _live_transcript_and_snapshot():
    with InProcessCluster() as cluster:
        with LiveClient(cluster.proxy_endpoint) as client:
            transcript = replay_typed(client)
            snapshot = snapshot_namespace(client)
    return transcript, snapshot


@pytest.fixture(scope="module")
def sim_run():
    return _sim_transcript_and_snapshot()


@pytest.fixture(scope="module")
def live_run():
    return _live_transcript_and_snapshot()


class TestAgreement:
    def test_per_op_transcripts_agree(self, sim_run, live_run):
        sim_transcript, _ = sim_run
        live_transcript, _ = live_run
        assert len(sim_transcript) == len(live_transcript) == len(TRACE)
        for index, (sim_record, live_record) in enumerate(
                zip(sim_transcript, live_transcript)):
            assert sim_record == live_record, (
                f"divergence at trace[{index}] {TRACE[index]}: "
                f"sim={sim_record} live={live_record}")

    def test_expected_failures_failed_on_both_sides(self, sim_run, live_run):
        # The trace deliberately includes failing ops; make sure the suite
        # is actually exercising the error paths, not silently passing.
        sim_transcript, _ = sim_run
        failures = [r for r in sim_transcript if not r["ok"]]
        assert len(failures) >= 8
        live_failures = [r for r in live_run[0] if not r["ok"]]
        assert [f["error"] for f in failures] == \
            [f["error"] for f in live_failures]

    def test_final_namespaces_identical(self, sim_run, live_run):
        _, sim_snapshot = sim_run
        _, live_snapshot = live_run
        assert sim_snapshot == live_snapshot

    def test_namespace_snapshot_nonempty(self, sim_run):
        _, snapshot = sim_run
        assert "/data/raw/part-0" in snapshot
        assert snapshot["/data/done"]["kind"] == "dir"
        # The READ|EXECUTE setattr stuck (and blocked the later mkdir).
        assert snapshot["/data/done"]["permission"] == 5
