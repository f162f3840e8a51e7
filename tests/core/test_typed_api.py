"""Typed operation registry, OpResult and the PR-2 client surface."""

import dataclasses

import pytest

from repro.core.api import BatchResult, MantleClient
from repro.core.config import MantleConfig
from repro.errors import AlreadyExistsError, MetadataError, NoSuchPathError
from repro.ops import (
    OP_NAMES,
    OP_TYPES,
    Create,
    Mkdir,
    Op,
    Rename,
    make_op,
)
from repro.runtime.client import LiveClient
from repro.sim.stats import MetricSet
from repro.types import OpResult, Permission

#: Methods only one client's transport has: the raw wire calls and the
#: live clock/trace export, or the simulator's paged listing, cache
#: statistics and instrumentation handles.
TRANSPORT_ONLY = frozenset((
    "call", "ping", "trace_snapshot", "now_us", "PROCESS_NAME",
    "listdir_page", "cache_stats", "simulated_time_us", "tracer",
    "telemetry"))


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


class TestOpRegistry:
    def test_every_name_maps_to_a_frozen_dataclass(self):
        for name, op_type in OP_TYPES.items():
            assert issubclass(op_type, Op)
            assert op_type.name == name
            assert dataclasses.is_dataclass(op_type)
        assert set(OP_NAMES) == set(OP_TYPES)

    def test_make_op_builds_typed_ops(self):
        assert make_op("mkdir", "/x") == Mkdir("/x")
        rename = make_op("dirrename", "/a", "/b")
        assert isinstance(rename, Rename)
        assert rename.handler_args() == ("/a", "/b")
        setattr_op = make_op("setattr", "/x", Permission.READ)
        assert setattr_op.handler_args() == ("/x", Permission.READ)

    def test_make_op_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown operation"):
            make_op("chmodx", "/")

    def test_ops_are_immutable(self):
        op = Create("/f")
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.path = "/g"


class TestOpResult:
    def test_is_an_int(self):
        result = OpResult(7, rpcs=3, retries=1, latency_us=2.5)
        assert result == 7
        assert isinstance(result, int)
        assert result.inode_id == 7
        assert result + 1 == 8
        assert (result.rpcs, result.retries, result.latency_us) == (3, 1, 2.5)
        assert "OpResult" in repr(result)


class TestConfigPresets:
    def test_small_is_the_example_shape(self):
        config = MantleConfig.small()
        assert config.num_db_servers == 3
        assert config.num_proxies == 2
        assert config.client_cache_capacity == 0

    def test_presets_take_overrides(self):
        assert MantleConfig.small(path_cache_k=2).path_cache_k == 2
        with pytest.raises(AttributeError):
            MantleConfig.small(no_such_field=True)


class TestClientSurface:
    def test_mutations_return_op_results(self):
        with MantleClient() as client:
            made = client.mkdir("/d")
            assert isinstance(made, OpResult)
            assert made.rpcs > 0
            assert made.latency_us > 0
            created = client.create("/d/f")
            assert client.objstat("/d/f").id == created

    def test_mkdir_parents_probes_one_walk(self):
        with MantleClient() as client:
            result = client.mkdir("/a/b/c", parents=True)
            assert client.dirstat("/a/b/c").id == result
            metrics = client.metrics
            # one dirstat probe per missing ancestor (both fail), then the
            # three mkdirs -- no exists() double-drives.
            assert metrics.latency["mkdir"].count == 3
            assert metrics.ops_failed == 2
            # deepest existing ancestor found on the first probe now:
            probes_before = metrics.latency["dirstat"].count
            client.mkdir("/a/b/d", parents=True)
            assert metrics.latency["mkdir"].count == 4
            assert metrics.latency["dirstat"].count == probes_before + 1
            assert metrics.ops_failed == 2

    def test_batch_runs_ops_in_one_drive(self):
        with MantleClient() as client:
            client.mkdir("/base")
            outcomes = client.batch([
                Create("/base/f0"),
                Create("/base/f1"),
                Mkdir("/base/sub"),
                Mkdir("/base"),  # duplicate -> per-op error, not a raise
            ])
            assert [isinstance(o, BatchResult) for o in outcomes]
            assert [o.ok for o in outcomes] == [True, True, True, False]
            assert isinstance(outcomes[0].result, OpResult)
            assert isinstance(outcomes[3].error, AlreadyExistsError)
            assert client.exists("/base/f1")
            # batch overlapped: cheaper than four sequential drives would be
            names = set(client.listdir("/base"))
            assert names == {"f0", "f1", "sub"}

    def test_batch_empty_is_a_noop(self):
        with MantleClient() as client:
            assert client.batch([]) == []

    def test_untraced_client_has_null_tracer(self):
        with MantleClient() as client:
            assert client.tracer.enabled is False
            assert client.tracer.spans == ()

    def test_stat_falls_back_to_dirstat(self):
        with MantleClient() as client:
            client.mkdir("/onlydir")
            assert client.stat("/onlydir").is_dir
            with pytest.raises(MetadataError):
                client.stat("/absent")

    def test_both_clients_expose_one_op_surface(self):
        sim_ops = _public(MantleClient) - TRANSPORT_ONLY
        live_ops = _public(LiveClient) - TRANSPORT_ONLY
        assert sim_ops == live_ops
        # Defined once: the typed methods are the same function objects.
        for name in sim_ops - {"perform", "close"}:
            assert getattr(MantleClient, name) is getattr(LiveClient, name), \
                name

    @pytest.mark.parametrize("tracing", [False, True])
    def test_failed_op_is_recorded_with_its_latency(self, tracing,
                                                    monkeypatch):
        monkeypatch.setenv("MANTLE_TRACE", "1" if tracing else "0")
        with MantleClient() as client:
            assert client.tracer.enabled is tracing
            with pytest.raises(NoSuchPathError):
                client.objstat("/absent")
            metrics = client.metrics
            assert metrics.ops_failed == 1
            assert metrics.failed_latency["objstat"].min > 0

    @pytest.mark.parametrize("tracing", [False, True])
    def test_perform_records_failures_into_metrics(self, tracing,
                                                   monkeypatch):
        monkeypatch.setenv("MANTLE_TRACE", "1" if tracing else "0")
        with MantleClient() as client:
            assert client.tracer.enabled is tracing
            system, metrics = client.system, MetricSet()
            with pytest.raises(NoSuchPathError):
                system.sim.run_process(system.perform(
                    make_op("dirstat", "/absent"), None, metrics))
            system.sim.run_process(system.perform(
                make_op("mkdir", "/present"), None, metrics))
            assert (metrics.ops_failed, metrics.ops_completed) == (1, 1)
            assert metrics.failed_latency["dirstat"].min > 0
            assert metrics.latency["mkdir"].min > 0

    def test_failed_listdir_page_is_counted(self):
        with MantleClient() as client:
            with pytest.raises(NoSuchPathError):
                client.listdir_page("/absent", limit=10)
            assert client.metrics.ops_failed == 1
            assert client.metrics.failed_latency["readdir"].min > 0

    def test_listdir_page_opens_a_root_span(self, monkeypatch):
        monkeypatch.setenv("MANTLE_TRACE", "1")
        with MantleClient() as client:
            client.mkdir("/d")
            assert client.listdir_page("/d", limit=5) == []
            assert [span.name for span in client.tracer.spans
                    if span.category == "op"] == ["mkdir", "readdir"]
