"""Assembly of a TafDB deployment: hosts, servers, shards, compactors."""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network
from repro.tafdb.client import TafDBClient
from repro.tafdb.contention import ContentionRegistry
from repro.tafdb.partition import Partitioner
from repro.tafdb.server import COMPACTION_PERIOD_US, DBServer
from repro.tafdb.shard import ShardState


class TafDBCluster:
    """A sharded TafDB deployment shared by every namespace (§4).

    ``contention`` is the cluster-wide registry deciding which directories
    run in delta mode; it is internal metadata-service state, so modelling
    it as a shared object (rather than replicated state) is faithful enough
    for the behaviours under study.
    """

    def __init__(self, sim: Simulator, network: Network,
                 num_servers: int = 18, num_shards: int = 72,
                 cores: int = 32, costs: Optional[CostModel] = None,
                 compaction_period_us: float = COMPACTION_PERIOD_US,
                 delta_threshold: int = 3,
                 deltas_enabled: bool = True,
                 start_compactors: bool = True):
        self.sim = sim
        self.network = network
        self.costs = costs or CostModel()
        self.partitioner = Partitioner(num_shards, num_servers)
        self.hosts: List[Host] = []
        self.servers: List[DBServer] = []
        for server_id in range(num_servers):
            host = Host(sim, f"tafdb-{server_id}", cores=cores,
                        fsync_us=self.costs.fsync_us)
            shard_ids = self.partitioner.shards_on_server(server_id)
            self.hosts.append(host)
            self.servers.append(DBServer(host, shard_ids, self.costs))
        self._shards: List[ShardState] = [
            self.servers[self.partitioner.server_of_shard(shard_id)].shard(
                shard_id) for shard_id in range(num_shards)]
        self.contention = ContentionRegistry(threshold=delta_threshold,
                                             enabled=deltas_enabled)
        self._client_ids = itertools.count(1)
        self._compactors = []
        if start_compactors:
            for server in self.servers:
                self._compactors.append(sim.process(
                    server.compactor_loop(compaction_period_us),
                    name=f"compactor-{server.host.name}"))

    def client(self, client_id: Optional[int] = None) -> TafDBClient:
        """A new client, numbered in this deployment unless ``client_id``
        is given."""
        if client_id is None:
            client_id = next(self._client_ids)
        return TafDBClient(self.sim, self.network, self.partitioner,
                           self.servers, self.costs, client_id=client_id)

    def shard_for(self, pid: int) -> ShardState:
        """The shard holding directory ``pid``'s rows (direct access, no
        RPC: bulk loading and the consistency audit)."""
        return self._shards[self.partitioner.shard_of(pid)]

    def stop_compactors(self) -> None:
        for proc in self._compactors:
            proc.interrupt("shutdown")
        self._compactors = []

    # -- aggregate stats ------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return sum(server.total_rows for server in self.servers)

    @property
    def total_aborts(self) -> int:
        return sum(server.total_aborts for server in self.servers)

    @property
    def total_commits(self) -> int:
        return sum(server.total_commits for server in self.servers)
