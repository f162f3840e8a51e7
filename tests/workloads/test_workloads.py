"""Tests for mdtest/spark/audio workloads and the bench harness."""

import pytest

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.ops import ObjStat
from repro.sim.stats import OpContext
from repro.workloads.audio import AudioPreprocessWorkload
from repro.workloads.mdtest import MdtestWorkload
from repro.workloads.spark import SparkAnalyticsWorkload


def tiny_system(name="mantle"):
    return build_system(name, "quick")


class TestMdtestWorkload:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MdtestWorkload("chown")
        with pytest.raises(ValueError):
            MdtestWorkload("create", mode="warp")
        with pytest.raises(ValueError):
            MdtestWorkload("create", depth=1)

    def test_ops_require_setup(self):
        w = MdtestWorkload("create", num_clients=2, items=3)
        with pytest.raises(RuntimeError):
            list(w.client_ops(0))

    def test_create_stream_targets_own_dir(self):
        system = tiny_system()
        w = MdtestWorkload("create", depth=6, items=3, num_clients=2)
        w.setup(system)
        ops0 = list(w.client_ops(0))
        ops1 = list(w.client_ops(1))
        assert all(op == "create" for op, _ in ops0)
        paths0 = {args[0] for _, args in ops0}
        paths1 = {args[0] for _, args in ops1}
        assert not paths0 & paths1  # exclusive mode: disjoint targets
        system.shutdown()

    def test_shared_mode_same_parent(self):
        system = tiny_system()
        w = MdtestWorkload("mkdir", mode="shared", depth=6, items=2,
                           num_clients=3)
        w.setup(system)
        parents = set()
        for cid in range(3):
            for _op, args in w.client_ops(cid):
                parents.add(args[0].rsplit("/", 1)[0])
        assert len(parents) == 1  # one contended parent directory
        system.shutdown()

    def test_depth_matches_request(self):
        system = tiny_system()
        w = MdtestWorkload("create", depth=10, items=1, num_clients=1)
        w.setup(system)
        (_op, args), = list(w.client_ops(0))
        assert args[0].count("/") == 10
        system.shutdown()

    def test_describe_mentions_mode(self):
        assert "mkdir-s" in MdtestWorkload("mkdir", mode="shared").describe()
        assert "create-e" in MdtestWorkload("create").describe()

    @pytest.mark.parametrize("op", ["create", "delete", "objstat", "dirstat",
                                    "readdir", "mkdir", "rmdir", "dirrename"])
    def test_every_op_runs_clean_on_mantle(self, op):
        system = tiny_system()
        w = MdtestWorkload(op, depth=6, items=3, num_clients=4)
        metrics = run_workload(system, w)
        assert metrics.ops_failed == 0
        assert metrics.ops_completed == 12
        system.shutdown()


class TestSparkWorkload:
    def test_stream_structure(self):
        system = tiny_system()
        w = SparkAnalyticsWorkload(num_clients=2, parts_per_task=2, rounds=1)
        w.setup(system)
        ops = [op for op, _ in w.client_ops(0)]
        assert ops == ["mkdir", "create", "create", "dirstat", "dirrename"]
        assert w.ops_per_client == len(ops)
        system.shutdown()

    def test_all_renames_target_shared_output(self):
        system = tiny_system()
        w = SparkAnalyticsWorkload(num_clients=3, parts_per_task=0, rounds=2)
        w.setup(system)
        outputs = set()
        for cid in range(3):
            for op, args in w.client_ops(cid):
                if op == "dirrename":
                    outputs.add(args[1].rsplit("/", 1)[0])
        assert outputs == {w.output}
        system.shutdown()

    def test_runs_clean_under_contention(self):
        system = tiny_system()
        w = SparkAnalyticsWorkload(num_clients=6, parts_per_task=1, rounds=2)
        metrics = run_workload(system, w)
        assert metrics.ops_failed == 0
        assert metrics.ops_completed == 6 * w.ops_per_client
        system.shutdown()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SparkAnalyticsWorkload(rounds=0)


class TestAudioWorkload:
    def test_stream_structure(self):
        system = tiny_system()
        w = AudioPreprocessWorkload(num_clients=2, segments=3, depth=8)
        w.setup(system)
        ops = [op for op, _ in w.client_ops(0)]
        assert ops == ["readdir"] + ["objstat"] * 3 + ["create"] * 3
        assert w.ops_per_client == len(ops)
        system.shutdown()

    def test_clients_have_disjoint_paths(self):
        system = tiny_system()
        w = AudioPreprocessWorkload(num_clients=3, segments=2)
        w.setup(system)
        all_paths = []
        for cid in range(3):
            all_paths.append({args[0] for _, args in w.client_ops(cid)})
        assert not (all_paths[0] & all_paths[1])
        assert not (all_paths[1] & all_paths[2])
        system.shutdown()

    def test_runs_clean(self):
        system = tiny_system()
        w = AudioPreprocessWorkload(num_clients=4, segments=3)
        metrics = run_workload(system, w)
        assert metrics.ops_failed == 0
        assert metrics.ops_completed == 4 * w.ops_per_client
        system.shutdown()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AudioPreprocessWorkload(segments=0)


class TestHarness:
    def test_metrics_throughput_positive(self):
        system = tiny_system()
        w = MdtestWorkload("objstat", depth=6, items=5, num_clients=4)
        metrics = run_workload(system, w)
        assert metrics.throughput_kops() > 0
        assert metrics.duration_us > 0
        system.shutdown()

    def test_failures_counted_not_raised(self):
        system = tiny_system()

        class BrokenWorkload:
            num_clients = 2

            def setup(self, _system):
                pass

            def client_ops(self, cid):
                yield ("objstat", (f"/missing/{cid}.bin",))

        metrics = run_workload(system, BrokenWorkload())
        assert metrics.ops_failed == 2
        assert metrics.ops_completed == 0
        system.shutdown()

    def test_run_single_op_context(self):
        system = tiny_system()
        system.bulk_mkdir("/x")
        system.bulk_create("/x/o")
        ctx = OpContext("objstat")
        system.sim.run_process(system.perform(ObjStat("/x/o"), ctx))
        assert ctx.latency > 0
        assert ctx.rpcs >= 1
        system.shutdown()

    def test_run_workload_on_every_system(self):
        from repro.bench.cluster import SYSTEMS
        for name in SYSTEMS:
            system = build_system(name, "quick")
            w = MdtestWorkload("objstat", depth=6, items=3, num_clients=2)
            metrics = run_workload(system, w)
            assert metrics.ops_failed == 0, name
            system.shutdown()
