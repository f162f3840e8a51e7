"""End-to-end observability tests against a live traced cluster.

One :class:`InProcessCluster` is started with tracing and telemetry on and
a traced :class:`LiveClient` drives a small workload; the tests then assert
the cross-process properties the tooling depends on: every op roots one
*connected* span tree across client, proxy, and backend; the merged
Chrome-trace export validates; wall-clock self-times telescope; and every
role serves a schema-valid metrics snapshot (over the wire and, for the
HTTP endpoint, over plain GET).  Every snapshot is read over the roles'
``obs.*`` RPCs, the one path both cluster flavours serve.
"""

import json
import urllib.request

import pytest

from repro.runtime import obs
from repro.runtime.client import LiveClient
from repro.runtime.live import InProcessCluster
from repro.sim.trace import Tracer, validate_chrome_trace


@pytest.fixture(scope="module")
def traced_world():
    """Cluster + client snapshots after a fixed traced workload."""
    with InProcessCluster(trace=True, telemetry=True,
                          metrics=True) as cluster:
        client = LiveClient(cluster.proxy_endpoint, tracer=Tracer())
        with client:
            client.mkdir("/obs")
            for i in range(6):
                client.create(f"/obs/o{i}")
                client.objstat(f"/obs/o{i}")
            client.listdir("/obs")
            client.dirstat("/obs")
        snapshots = obs.collect_snapshots(cluster.endpoints)
        snapshots.append(client.trace_snapshot())
        metrics = obs.collect_snapshots(cluster.endpoints,
                                        method="obs.metrics_snapshot")
        http_payloads = []
        for port in sorted(cluster.metrics_ports.values()):
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/",
                                        timeout=10) as response:
                http_payloads.append(
                    json.loads(response.read().decode("utf-8")))
        yield {"snapshots": snapshots, "metrics": metrics,
               "http": http_payloads}


class TestCrossProcessTrace:
    def test_snapshots_cover_all_four_processes(self, traced_world):
        procs = {s["process"] for s in traced_world["snapshots"]}
        assert procs == {"client", "proxy", "indexnode", "tafdb"}
        for snap in traced_world["snapshots"]:
            assert obs.validate_trace_snapshot(snap) == []
            assert snap["clock"] == "wallclock"
            assert snap["dropped"] == 0

    def test_remote_parent_links_all_resolve(self, traced_world):
        assert obs.cross_process_problems(traced_world["snapshots"]) == []

    def test_every_op_tree_is_connected_across_processes(self, traced_world):
        stats = obs.op_tree_stats(traced_world["snapshots"])
        # 1 mkdir + 6 creates + 6 objstats + readdir + dirstat = 15 roots.
        assert stats["ops"] == 15
        for tree in stats["trees"]:
            # Client op -> proxy handler at minimum; every op here also
            # reaches a backend role through the proxy's onward RPCs.
            assert tree["spans"] >= 3
            assert "client" in tree["processes"]
            assert "proxy" in tree["processes"]
            assert len(tree["processes"]) >= 3, tree
        # Writes go through both backends (index propose + TafDB txn).
        mkdirs = [t for t in stats["trees"] if t["op"] == "mkdir"]
        assert mkdirs and all(
            set(t["processes"]) ==
            {"client", "proxy", "indexnode", "tafdb"} for t in mkdirs)

    def test_wallclock_self_times_telescope(self, traced_world):
        # 50us tolerance: wall-clock reads on a busy event loop, not sim.
        assert obs.dyn_self_time_problems(traced_world["snapshots"],
                                          tolerance_us=50.0) == []

    def test_merged_chrome_trace_validates(self, traced_world):
        merged = obs.merge_chrome_trace(traced_world["snapshots"])
        assert validate_chrome_trace(merged) == []
        names = {e.get("name") for e in merged["traceEvents"]}
        assert "process_name" in names  # one pid track per process
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert len(pids) == 4

    def test_client_wire_charges_subtract_server_time(self, traced_world):
        client_snap = next(s for s in traced_world["snapshots"]
                           if s["process"] == "client")
        op_spans = [s for s in client_snap["spans"]
                    if s.get("cat") == "op"]
        assert op_spans
        for span in op_spans:
            costs = span.get("costs") or []
            wire_us = sum(us for kind, _host, us in costs
                          if kind == "wire")
            assert 0.0 <= wire_us <= (span["end_us"] - span["start_us"])

    def test_phase_breakdown_folds_live_ops(self, traced_world):
        phases = obs.phase_breakdown(traced_world["snapshots"])
        assert set(phases) == {"mkdir", "create", "objstat", "readdir",
                               "dirstat"}
        assert phases["objstat"].count == 6
        assert phases["objstat"].mean_phase_us("wire") > 0.0
        # Writes hit the WAL: real fsync time must surface as fsync phase.
        assert phases["create"].mean_phase_us("fsync") > 0.0


class TestMetricsSnapshots:
    def test_wire_metrics_snapshots_validate(self, traced_world):
        assert len(traced_world["metrics"]) == 3
        for payload in traced_world["metrics"]:
            assert obs.validate_metrics_snapshot(payload) == []
            assert payload["tracing"]["enabled"] is True
            assert payload["telemetry"]["enabled"] is True

    def test_http_endpoint_serves_same_schema(self, traced_world):
        assert len(traced_world["http"]) == 3
        for payload in traced_world["http"]:
            assert obs.validate_metrics_snapshot(payload) == []

    def test_rpc_and_fsync_counters_moved(self, traced_world):
        rows_by_proc = {p["process"]: p["telemetry"]["rows"]
                        for p in traced_world["metrics"]}
        proxy_metrics = {row["metric"] for row in rows_by_proc["proxy"]}
        assert "rpc.count" in proxy_metrics
        assert "rpc.latency_us" in proxy_metrics
        backend_metrics = {row["metric"] for row in rows_by_proc["tafdb"]}
        assert "host.fsync" in backend_metrics


class TestUntracedInterop:
    def test_untraced_client_against_traced_cluster(self):
        # Old-style frames (no trace context) must still be served, and
        # the server must treat them as untraced callers.
        with InProcessCluster(trace=True, telemetry=True) as cluster:
            with LiveClient(cluster.proxy_endpoint) as client:
                client.mkdir("/plain")
                client.create("/plain/o")
                assert client.listdir("/plain") == ["o"]
            snapshots = obs.collect_snapshots(cluster.endpoints)
        # Server-side spans exist (role tracers are on, and proxy->backend
        # RPCs still propagate *proxy* context) but none may reference the
        # client, which sent old-style frames.
        assert obs.cross_process_problems(snapshots) == []
        for snap in snapshots:
            for span in snap["spans"]:
                attrs = span.get("attrs") or {}
                assert attrs.get("remote_parent_proc") != "client"

    def test_untraced_cluster_defaults_to_null_instruments(self):
        with InProcessCluster() as cluster:
            with LiveClient(cluster.proxy_endpoint) as client:
                client.mkdir("/off")
            snapshots = obs.collect_snapshots(cluster.endpoints)
            metrics = obs.collect_snapshots(cluster.endpoints,
                                            method="obs.metrics_snapshot")
        assert {snap["process"] for snap in snapshots} == \
            {"tafdb", "indexnode", "proxy"}
        for snap in snapshots:
            assert snap["enabled"] is False
            assert snap["spans"] == []
        for payload in metrics:
            assert payload["tracing"]["enabled"] is False
            assert payload["telemetry"]["enabled"] is False
            assert payload["telemetry"]["rows"] == []
