"""Assembly of a complete Mantle deployment (Figure 5).

One :class:`MantleSystem` wires together the simulated cluster: the shared
TafDB, the per-namespace IndexNode Raft group (leader + followers +
optional learners), and a fleet of stateless proxies.  It implements the
system-agnostic :class:`~repro.baselines.base.MetadataSystem` interface used
by every workload and benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.base import IdAllocator, MetadataSystem
from repro.baselines.common import StorageMixin
from repro.core.config import MantleConfig
from repro.core.proxy import ProxyRouted
from repro.indexnode.server import IndexNodeService
from repro.indexnode.state import IndexNodeState
from repro.raft.group import RaftGroup
from repro.raft.node import RaftConfig
from repro.sim.core import Simulator
from repro.sim.host import Host
from repro.sim.network import Network
from repro.tafdb.cluster import TafDBCluster
from repro.types import ROOT_ID, AccessMeta


def build_tafdb(sim: Simulator, network: Network,
                config: MantleConfig) -> TafDBCluster:
    """The TafDB cluster of a deployment configured by ``config``: one per
    :class:`MantleSystem`, or one shared by a
    :class:`~repro.core.multitenant.MantleDeployment`'s namespaces."""
    return TafDBCluster(
        sim, network,
        num_servers=config.num_db_servers,
        num_shards=config.num_db_shards,
        cores=config.db_cores,
        costs=config.costs,
        delta_threshold=config.delta_activation_threshold,
        deltas_enabled=config.enable_delta_records)


class MantleSystem(ProxyRouted, StorageMixin, MetadataSystem):
    """A full simulated Mantle deployment for one namespace."""

    name = "mantle"

    def __init__(self, config: Optional[MantleConfig] = None,
                 sim: Optional[Simulator] = None,
                 network: Optional[Network] = None, seed: int = 7,
                 tafdb: Optional[TafDBCluster] = None,
                 ids: Optional[IdAllocator] = None,
                 root_id: int = ROOT_ID,
                 namespace: str = "default",
                 index_hosts: Optional[List[Host]] = None):
        """Build one namespace's Mantle service.

        By default everything (simulator, network, TafDB) is private; a
        :class:`~repro.core.multitenant.MantleDeployment` passes shared
        ``sim``/``network``/``tafdb``/``ids`` plus a per-namespace
        ``root_id``, reproducing the paper's multi-namespace architecture
        (shared TafDB, one IndexNode Raft group per namespace, §4/§7).
        ``index_hosts`` allows co-locating several namespaces' IndexNode
        replicas on shared physical servers (§7.2).
        """
        self.config = config or MantleConfig()
        self.config.validate()
        # The one cost model: hosts, network, Raft, TafDB, IndexNodes and
        # proxies all read it (a what-if rerun passes a scaled copy).
        costs = self.config.costs
        sim = sim or Simulator()
        if self.config.tracing and not sim.tracer.enabled:
            from repro.sim.trace import Tracer
            sim.tracer = Tracer()
            sim.tracer.bind(sim)
        if self.config.telemetry and not sim.telemetry.enabled:
            from repro.sim.telemetry import Telemetry
            sim.telemetry = Telemetry(
                window_us=self.config.telemetry_window_us)
        network = network or Network(sim, one_way_us=costs.net_one_way_us)
        super().__init__(sim, network)
        self.costs = costs
        self.namespace = namespace
        if namespace != "default":
            self.tenant = namespace
        self.root_id = root_id

        self.tafdb = tafdb or build_tafdb(sim, network, self.config)
        self._owns_tafdb = tafdb is None

        raft_config = RaftConfig(
            batching_enabled=self.config.enable_raft_batching,
            snapshot_threshold=self.config.raft_snapshot_threshold)
        replicas = self.config.index_replicas + self.config.num_learners
        if index_hosts is None:
            index_hosts = [
                Host(sim, f"{namespace}-indexnode-{i}",
                     cores=self.config.index_cores, fsync_us=costs.fsync_us)
                for i in range(replicas)
            ]
        elif len(index_hosts) != replicas:
            raise ValueError("index_hosts must cover voters + learners")
        self.index_group = RaftGroup(
            sim, network, index_hosts,
            state_machine_factory=lambda nid: IndexNodeState(
                cache_k=self.config.path_cache_k,
                cache_enabled=self.config.enable_path_cache,
                root_id=root_id),
            num_voters=self.config.index_replicas,
            num_learners=self.config.num_learners,
            config=raft_config, costs=costs, seed=seed)
        self.index_services: Dict[int, IndexNodeService] = {
            nid: IndexNodeService(node.host, node, node.state_machine, costs)
            for nid, node in self.index_group.nodes.items()
        }

        self.ids = ids or IdAllocator(start=root_id + 1)
        self._init_proxies(self.config.num_proxies)
        self._init_bulk(root_id)

    # -- lifecycle ----------------------------------------------------------------

    def startup(self) -> None:
        """Elect the IndexNode leader; must run before submitting ops."""
        self.sim.run_process(self.index_group.wait_for_leader())

    def shutdown(self) -> None:
        for service in self.index_services.values():
            service.stop()
        self.index_group.stop()
        if self._owns_tafdb:
            self.tafdb.stop_compactors()

    # -- routing ---------------------------------------------------------------------

    def proxy_host(self, proxy_id: int) -> Host:
        """The execution host backing proxy ``proxy_id``.

        Simulated deployments build a fresh :class:`~repro.sim.host.Host`;
        the live facade overrides this to hand out the process's single
        :class:`~repro.runtime.live.LiveHost`.
        """
        return Host(self.sim, f"proxy-{proxy_id}",
                    cores=self.config.proxy_cores)

    def leader_service(self) -> IndexNodeService:
        """The RPC target for the current IndexNode leader (raises
        :class:`~repro.errors.ServiceUnavailableError` mid-election)."""
        leader = self.index_group.leader_or_raise()
        return self.index_services[leader.id]

    def lookup_services(self) -> List[IndexNodeService]:
        return [svc for svc in self.index_services.values()
                if not svc.host.crashed]

    # -- bulk loading ----------------------------------------------------------------------

    def _on_bulk_mkdir(self, pid: int, name: str, dir_id: int,
                       path: str) -> None:
        """Mirror a bulk-loaded directory into every IndexNode replica,
        all sharing one entry and one key."""
        meta = AccessMeta(pid=pid, name=name, id=dir_id)
        key = (pid, name)
        for node in self.index_group.nodes.values():
            node.state_machine.table.insert(meta, key)
