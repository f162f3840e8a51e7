"""Tests for the mixed production-style workload and Zipf picker."""

import collections
import gc
import tracemalloc

import pytest

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.workloads.mixed import (DEFAULT_MIX, MixedWorkload, ZipfPicker,
                                   zipf_table)
from repro.workloads.namespace import build_namespace
from tests.oracle import per_client_zipf_ops


class TestZipfPicker:
    def test_skewed_toward_head(self):
        picker = ZipfPicker(list(range(100)), s=1.2, seed=1)
        counts = collections.Counter(picker.pick() for _ in range(3000))
        head = sum(counts[i] for i in range(10))
        tail = sum(counts[i] for i in range(90, 100))
        assert head > 5 * max(1, tail)

    def test_uniform_when_s_zero(self):
        picker = ZipfPicker(list(range(10)), s=0.0, seed=2)
        counts = collections.Counter(picker.pick() for _ in range(5000))
        assert min(counts.values()) > 300  # roughly uniform

    def test_deterministic_per_seed(self):
        a = ZipfPicker(list(range(50)), seed=3)
        b = ZipfPicker(list(range(50)), seed=3)
        assert [a.pick() for _ in range(20)] == [b.pick() for _ in range(20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPicker([])
        with pytest.raises(ValueError):
            ZipfPicker([1], s=-1)


class TestMixedWorkload:
    def _spec(self):
        return build_namespace(num_dirs=60, objects_per_dir=5, seed=9,
                               root="/mix")

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            MixedWorkload(self._spec(), mix={"chown": 1.0})
        with pytest.raises(ValueError):
            MixedWorkload(self._spec(), mix={"objstat": 0.0})

    def test_weights_normalised(self):
        workload = MixedWorkload(self._spec(), mix={"objstat": 2, "create": 2})
        assert workload.mix == {"objstat": 0.5, "create": 0.5}

    def test_stream_respects_mix_shape(self):
        system = build_system("mantle", "quick")
        workload = MixedWorkload(self._spec(), num_clients=2,
                                 ops_per_client=300, seed=5)
        workload.setup(system)
        counts = collections.Counter(op for op, _ in workload.client_ops(0))
        # Lookup-dominated, like Table 3's production profile.
        assert counts["objstat"] > counts["create"] > counts["rmdir"]
        assert set(counts) <= set(DEFAULT_MIX)
        system.shutdown()

    def test_runs_clean_on_every_system(self):
        from repro.bench.cluster import SYSTEMS
        for name in SYSTEMS:
            system = build_system(name, "quick")
            workload = MixedWorkload(self._spec(), num_clients=4,
                                     ops_per_client=25, seed=6)
            metrics = run_workload(system, workload)
            assert metrics.ops_failed == 0, name
            assert metrics.ops_completed == 100
            system.shutdown()

    def test_zipf_access_hits_cache_well(self):
        """Skewed access should give TopDirPathCache a high hit rate."""
        system = build_system("mantle", "quick")
        workload = MixedWorkload(self._spec(), num_clients=8,
                                 ops_per_client=40,
                                 mix={"objstat": 1.0}, zipf_s=1.2)
        run_workload(system, workload)
        leader = system.index_group.leader_or_raise()
        assert leader.state_machine.cache.hit_rate > 0.5
        system.shutdown()

    def test_requires_setup(self):
        workload = MixedWorkload(self._spec())
        with pytest.raises(RuntimeError):
            list(workload.client_ops(0))


class _NoLoad:
    """A system whose bulk load keeps nothing: the op streams only need
    the workload's own lists."""

    def bulk_load(self, dirs, objects):
        pass


class TestSharedZipfTables:
    """One Zipf table per item list, shared by every client's pickers."""

    CLIENTS = 32

    def _workload(self, seed):
        # The ledger's sim_mixed spec and stream, at full size.
        spec = build_namespace(num_dirs=2000, objects_per_dir=10, seed=seed)
        workload = MixedWorkload(spec, num_clients=self.CLIENTS,
                                 ops_per_client=400, seed=seed)
        workload.setup(_NoLoad())
        return workload

    @pytest.mark.parametrize("seed", [11, 12])
    def test_streams_equal_per_client_tables(self, seed):
        workload = self._workload(seed)
        for cid in range(self.CLIENTS):
            assert list(workload.client_ops(cid)) == \
                list(per_client_zipf_ops(workload, cid)), cid

    def test_picker_over_a_table_draws_like_its_own(self):
        items = [f"/d{i}" for i in range(500)]
        own = ZipfPicker(items, s=1.1, seed=7)
        shared = ZipfPicker.over(zipf_table(items, 1.1), seed=7)
        assert [own.pick() for _ in range(2000)] == \
            [shared.pick() for _ in range(2000)]

    def test_more_clients_allocate_no_more_tables(self):
        workload = self._workload(11)

        def opened(clients):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                streams = [workload.client_ops(cid) for cid in range(clients)]
                for stream in streams:
                    next(stream)  # the pickers are built on the first op
                return tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()

        one, all_clients = opened(1), opened(self.CLIENTS)
        assert all_clients - one < 1 << 20, (one, all_clients)
