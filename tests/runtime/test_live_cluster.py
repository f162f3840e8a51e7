"""End-to-end tests against a live asyncio cluster.

``InProcessCluster`` runs the three roles — TafDB, IndexNode, proxy — as
real TCP servers on an event loop in a background thread; ``LiveClient``
talks to the proxy over the wire protocol from ordinary synchronous test
code.  ``TestProcessCluster`` (marked slow) does the same through actual
OS processes spawned via ``mantle-serve``.
"""

import sys
import threading
import time

import pytest

from repro.errors import (
    AlreadyExistsError,
    ConnectionLostError,
    NoSuchPathError,
    ServiceUnavailableError,
)
from repro.ops import Create, DirStat, Mkdir, ObjStat, ReadDir
from repro.runtime import obs
from repro.runtime.client import LiveClient
from repro.runtime.live import (
    LIVE_PURGE_PERIOD_US,
    InProcessCluster,
    ProcessCluster,
)
from repro.sim.trace import Tracer
from repro.types import EntryKind, OpResult, Permission, StatResult


@pytest.fixture(scope="module")
def cluster():
    with InProcessCluster() as cluster:
        yield cluster


@pytest.fixture()
def client(cluster):
    with LiveClient(cluster.proxy_endpoint) as client:
        yield client


@pytest.fixture(scope="module")
def ns(cluster):
    """A module-scoped namespace prefix so tests don't collide."""
    counter = {"n": 0}

    def fresh():
        counter["n"] += 1
        return f"/t{counter['n']}"

    return fresh


class TestLiveOps:
    def test_ping(self, client):
        payload = client.ping()
        assert payload["pong"] is True
        assert payload["now_us"] >= 0

    def test_mkdir_create_stat(self, client, ns):
        root = ns()
        made = client.mkdir(root)
        assert isinstance(made, OpResult)
        assert made.inode_id > 1
        created = client.create(f"{root}/obj")
        assert created.inode_id == made.inode_id + 1
        stat = client.objstat(f"{root}/obj")
        assert isinstance(stat, StatResult)
        assert stat.kind is EntryKind.OBJECT
        assert stat.id == created.inode_id

    def test_mkdir_parents(self, client, ns):
        root = ns()
        client.mkdir(f"{root}/a/b/c", parents=True)
        assert client.listdir(f"{root}/a") == ["b"]
        assert client.dirstat(f"{root}/a/b/c").kind is EntryKind.DIRECTORY

    def test_rpc_accounting_travels_back(self, client, ns):
        root = ns()
        result = client.mkdir(root)
        # mkdir live = index propose + TafDB txn (+ read barrier legs):
        # the proxy's per-op RPC count must reach the client, nonzero.
        assert result.rpcs > 0
        assert result.latency_us > 0

    def test_errors_cross_the_wire_typed(self, client, ns):
        root = ns()
        client.mkdir(root)
        with pytest.raises(AlreadyExistsError):
            client.mkdir(root)
        with pytest.raises(NoSuchPathError):
            client.objstat(f"{root}/missing")
        with pytest.raises(NoSuchPathError):
            client.mkdir("/no-such-parent/child")

    def test_rename_and_delete(self, client, ns):
        root = ns()
        client.mkdir(root)
        client.mkdir(f"{root}/src")
        moved = client.rename(f"{root}/src", f"{root}/dst")
        assert isinstance(moved, OpResult)
        assert client.listdir(root) == ["dst"]
        client.create(f"{root}/dst/obj")
        client.delete(f"{root}/dst/obj")
        assert client.listdir(f"{root}/dst") == []

    def test_setattr_permission(self, client, ns):
        root = ns()
        client.mkdir(root)
        stat = client.setattr(root, Permission.READ | Permission.EXECUTE)
        assert stat.permission == Permission.READ | Permission.EXECUTE
        assert client.dirstat(root).permission == \
            Permission.READ | Permission.EXECUTE

    def test_exists(self, client, ns):
        root = ns()
        assert not client.exists(root)
        client.mkdir(root)
        assert client.exists(root)
        client.create(f"{root}/o")
        assert client.exists(f"{root}/o")

    def test_batch_mixes_success_and_failure(self, client, ns):
        root = ns()
        client.mkdir(root)
        items = client.batch([
            Mkdir(f"{root}/d1"),
            Create(f"{root}/o1"),
            ObjStat(f"{root}/absent"),
        ])
        assert items[0].ok and isinstance(items[0].result, OpResult)
        assert items[1].ok and isinstance(items[1].result, OpResult)
        assert not items[2].ok
        assert isinstance(items[2].error, NoSuchPathError)

    def test_batch_returns_results_in_op_order(self, client, ns):
        root = ns()
        client.mkdir(root)
        ops = []
        for n in range(12):
            ops.append(Create(f"{root}/o{n}"))
            ops.append(ObjStat(f"{root}/absent{n}"))
        items = client.batch(ops)
        assert [item.op for item in items] == ops
        created = [int(item.result) for item in items[0::2]]
        assert len(set(created)) == 12
        assert all(isinstance(item.error, NoSuchPathError)
                   and item.result is None for item in items[1::2])
        # The ids really are the ones the named objects got.
        stats = client.batch([ObjStat(f"{root}/o{n}") for n in range(12)])
        assert [item.result.id for item in stats] == created
        assert client.metrics.ops_failed == 12
        assert client.batch([]) == []

    def test_batch_reports_a_lost_connection_per_op(self):
        with LiveClient("127.0.0.1:1") as client:
            items = client.batch([Mkdir("/a"), Mkdir("/b")])
        assert [type(item.error) for item in items] == \
            [ConnectionLostError] * 2

    def test_perform_typed_op(self, client, ns):
        root = ns()
        result = client.perform(Mkdir(root))
        assert isinstance(result, OpResult)
        assert client.perform(ReadDir(root)) == []

    def test_metrics_recorded(self, cluster, ns):
        root = ns()
        with LiveClient(cluster.proxy_endpoint) as client:
            client.mkdir(root)
            client.create(f"{root}/o")
            with pytest.raises(NoSuchPathError):
                client.objstat(f"{root}/absent")
            assert client.metrics.ops_completed == 2
            assert client.metrics.ops_failed == 1

    def test_failed_op_is_recorded_with_its_latency(self, cluster, ns):
        """A failed op's reply carries no latency; the client records the
        send-to-reply time it measured instead of 0."""
        with LiveClient(cluster.proxy_endpoint) as client:
            with pytest.raises(NoSuchPathError):
                client.objstat(f"{ns()}/absent")
            failed = client.metrics.failed_latency["objstat"]
            assert failed.count == 1 and failed.min > 0


class TestTransportFaults:
    def test_connection_refused_is_service_unavailable(self):
        # Port 1 is never listening; the fault must surface as the same
        # exception family domain retry loops already handle.
        with LiveClient("127.0.0.1:1") as client:
            with pytest.raises(ServiceUnavailableError):
                client.ping()
            with pytest.raises(ConnectionLostError):
                client.ping()

    def test_closed_client_rejects_calls(self, cluster):
        client = LiveClient(cluster.proxy_endpoint)
        client.ping()
        client.close()
        with pytest.raises(RuntimeError):
            client.ping()

    def test_client_survives_server_restartless_reconnect(self, cluster):
        # Two clients on one cluster: closing one must not disturb the
        # other's connection (per-connection state on the server).
        a = LiveClient(cluster.proxy_endpoint)
        b = LiveClient(cluster.proxy_endpoint)
        try:
            a.ping()
            b.ping()
            a.close()
            assert b.ping()["pong"] is True
        finally:
            b.close()


class TestClientThreads:
    CYCLES = 60

    def _cycle(self, client, root, errors):
        try:
            for n in range(self.CYCLES):
                path = f"{root}/o{n}"
                created = int(client.create(path))
                if client.objstat(path).id != created:
                    errors.append(f"{path}: objstat disagrees with create")
                if client.listdir(root) != [f"o{n}"]:
                    errors.append(f"{root}: listing is not [o{n}]")
                client.delete(path)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert
            errors.append(repr(exc))

    def _run_threads(self, targets):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=target, args=args)
                       for target, args in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)

    def test_two_clients_on_two_threads(self, cluster, ns):
        errors = []
        roots = [ns(), ns()]
        clients = [LiveClient(cluster.proxy_endpoint) for _ in roots]
        try:
            for client, root in zip(clients, roots):
                client.mkdir(root)
            self._run_threads([(self._cycle, (client, root, errors))
                               for client, root in zip(clients, roots)])
        finally:
            for client in clients:
                client.close()
        assert errors == []
        assert all(c.metrics.ops_completed == 1 + 4 * self.CYCLES
                   for c in clients)

    def test_one_client_shared_by_three_threads(self, client, ns):
        # Each exchange is atomic under the client's lock: replies never
        # cross between the threads' requests.
        errors = []
        roots = [ns(), ns(), ns()]
        for root in roots:
            client.mkdir(root)
        self._run_threads([(self._cycle, (client, root, errors))
                           for root in roots])
        assert errors == []


class TestTracedClient:
    def test_every_op_roots_one_connected_span_tree(self):
        with InProcessCluster(trace=True) as cluster:
            with LiveClient(cluster.proxy_endpoint,
                            tracer=Tracer()) as client:
                client.mkdir("/tr")
                items = client.batch(
                    [Create(f"/tr/o{n}") for n in range(4)]
                    + [ObjStat("/tr/absent"), DirStat("/tr")])
                assert [item.ok for item in items] == [True] * 4 + \
                    [False, True]
                client.objstat("/tr/o0")
                snapshots = obs.collect_snapshots(cluster.endpoints)
                snapshots.append(client.trace_snapshot())
        assert obs.cross_process_problems(snapshots) == []
        assert obs.dyn_self_time_problems(snapshots, tolerance_us=50.0) == []
        stats = obs.op_tree_stats(snapshots)
        assert sorted(tree["op"] for tree in stats["trees"]) == sorted(
            ["mkdir"] + ["create"] * 4 + ["objstat", "dirstat", "objstat"])
        for tree in stats["trees"]:
            assert {"client", "proxy"} <= set(tree["processes"]), tree
        # Pipelined ops kept separate span stacks: no client op span has
        # another as its dynamic parent.
        client_spans = snapshots[-1]["spans"]
        assert len(client_spans) == 8
        assert not any(span.get("dyn_parent") for span in client_spans)
        # Each handler's own cpu and queue time rides back on the response
        # envelope and is charged on the caller's span.
        phases = obs.phase_breakdown(snapshots)
        assert phases["create"].mean_phase_us("cpu") > 0.0
        assert phases["create"].mean_phase_us("queue") > 0.0


class TestLiveInvalidator:
    @staticmethod
    def _index_counters(cluster) -> dict:
        snapshot, = obs.collect_snapshots(
            {"indexnode": cluster.endpoints["indexnode"]},
            method="obs.metrics_snapshot")
        totals = {}
        for row in snapshot["telemetry"]["rows"]:
            if row["kind"] == "counter":
                totals[row["metric"]] = \
                    totals.get(row["metric"], 0) + row["value"]
        return totals

    def test_removal_list_drains_after_a_rename(self):
        # The IndexNode role drives the simulator's invalidator loop: a few
        # purge periods after a rename, lookups under the old prefix no
        # longer bypass the path cache.
        with InProcessCluster(telemetry=True) as cluster:
            with LiveClient(cluster.proxy_endpoint) as client:
                client.mkdir("/a/b/c/d/e", parents=True)
                client.rename("/a/b", "/a/z")
                time.sleep(6 * LIVE_PURGE_PERIOD_US / 1e6)
                before = self._index_counters(cluster)
                client.mkdir("/a/b/c/d/e", parents=True)
                client.create("/a/b/c/d/e/o")
                client.objstat("/a/b/c/d/e/o")
                after = self._index_counters(cluster)
            codes = cluster.stop()
        lookups = sum(after.get(metric, 0) - before.get(metric, 0)
                      for metric in ("index.cache_hits", "index.cache_misses",
                                     "index.cache_bypass"))
        assert lookups > 0
        assert after.get("index.cache_bypass", 0) == \
            before.get("index.cache_bypass", 0)
        assert codes == {"proxy": 0, "indexnode": 0, "tafdb": 0}


@pytest.mark.slow
class TestProcessCluster:
    def test_three_process_cluster(self, tmp_path):
        cluster = ProcessCluster(wal_dir=str(tmp_path))
        endpoint = cluster.start()
        try:
            with LiveClient(endpoint) as client:
                client.mkdir("/proc")
                client.create("/proc/obj")
                assert client.listdir("/proc") == ["obj"]
                with pytest.raises(NoSuchPathError):
                    client.objstat("/proc/none")
        finally:
            codes = cluster.stop()
        assert all(code == 0 for code in codes.values()), codes
