"""Tests for cluster builders and the inspection helpers."""

import pytest

from repro.bench.cluster import SYSTEMS, build_system
from repro.bench.harness import run_workload
from repro.bench.inspect import host_utilization_table
from repro.core.config import MantleConfig
from repro.sim.host import CostModel
from repro.workloads.mdtest import MdtestWorkload


class TestClusterBuilder:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_system("hdfs")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            build_system("mantle", scale="galactic")

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_every_system_starts_at_quick_scale(self, name):
        system = build_system(name, "quick")
        assert system.name == name
        system.shutdown()

    def test_mantle_overrides_reach_config(self):
        system = build_system("mantle", "quick", num_learners=2)
        assert system.config.num_learners == 2
        assert len(system.index_group.learner_ids()) == 2
        system.shutdown()

    def test_mantle_keeps_its_configs_cost_model(self):
        fast_wire = CostModel().copy(net_one_way_us=15.0)
        system = build_system("mantle", "quick",
                              config=MantleConfig(costs=fast_wire))
        assert system.costs.net_one_way_us == 15.0
        # Every component reads that one model.
        assert system.tafdb.costs is system.costs
        assert all(proxy.costs is system.costs for proxy in system.proxies)
        assert all(service.costs is system.costs
                   for service in system.index_services.values())
        system.shutdown()
        # An explicit cost model still wins over the config's.
        system = build_system("mantle", "quick",
                              config=MantleConfig(costs=fast_wire),
                              costs=CostModel())
        assert system.costs.net_one_way_us == CostModel().net_one_way_us
        system.shutdown()

    def test_tectonic_gets_extra_db_servers(self):
        tectonic = build_system("tectonic", "quick")
        mantle = build_system("mantle", "quick")
        assert len(tectonic.tafdb.servers) == len(mantle.tafdb.servers) + 3
        tectonic.shutdown()
        mantle.shutdown()


class TestInspection:
    def _run(self, name="mantle"):
        system = build_system(name, "quick")
        workload = MdtestWorkload("mkdir", depth=6, items=5, num_clients=8)
        metrics = run_workload(system, workload)
        return system, metrics

    def test_host_utilization_table_covers_hosts(self):
        system, metrics = self._run()
        table = host_utilization_table(system, metrics.duration_us)
        hosts = table.column("host")
        assert any(h.startswith("tafdb-") for h in hosts)
        assert any("indexnode" in h for h in hosts)
        assert any(h.startswith("proxy-") for h in hosts)
        assert all(0 <= u <= 100 for u in table.column("utilisation %"))
        system.shutdown()

    def test_subsystem_counters(self):
        system, _metrics = self._run()
        assert system.tafdb.total_commits > 0
        leader = system.index_group.current_leader()
        assert leader.proposals == 40  # 8 clients x 5 mkdirs
        system.shutdown()

    def test_inspection_works_for_baselines(self):
        for name in ("tectonic", "infinifs", "locofs"):
            system, metrics = self._run(name)
            table = host_utilization_table(system, metrics.duration_us)
            assert len(table.rows) > 0
            system.shutdown()
