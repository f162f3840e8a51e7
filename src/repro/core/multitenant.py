"""Multi-namespace Mantle deployments (§4 / §7).

Figure 5's architecture is per-namespace IndexNodes over one shared TafDB:
"TafDB stores all metadata at scale and is shared across namespaces, while
IndexNode caches only essential directory metadata for a single namespace".
Production (§7.1) runs 19 internal namespaces across three clusters, and
§7.2 describes co-locating the IndexNode replicas of several namespaces on
a shared pool of physical servers.

:class:`MantleDeployment` reproduces exactly that: one simulator, one
network, one TafDB cluster, one shared id allocator — and any number of
namespaces, each with its own IndexNode Raft group (optionally placed on a
shared host pool).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.base import IdAllocator
from repro.core.config import MantleConfig
from repro.core.service import MantleSystem, build_tafdb
from repro.sim.core import Simulator
from repro.sim.host import Host
from repro.sim.network import Network


class MantleDeployment:
    """A cluster hosting many namespaces over one shared TafDB."""

    def __init__(self, config: Optional[MantleConfig] = None, seed: int = 7,
                 shared_index_pool: int = 0):
        """``shared_index_pool`` > 0 creates a pool of that many physical
        servers; namespaces created with ``colocate=True`` place their
        IndexNode replicas round-robin on the pool instead of on dedicated
        hosts (§7.2's utilisation strategy)."""
        self.config = config or MantleConfig()
        self.config.validate()
        self.seed = seed
        self.sim = Simulator()
        self.network = Network(self.sim,
                               one_way_us=self.config.costs.net_one_way_us)
        self.tafdb = build_tafdb(self.sim, self.network, self.config)
        self.ids = IdAllocator(start=2)
        self.namespaces: Dict[str, MantleSystem] = {}
        self._pool: List[Host] = [
            Host(self.sim, f"index-pool-{i}",
                 cores=self.config.index_cores,
                 fsync_us=self.config.costs.fsync_us)
            for i in range(shared_index_pool)
        ]
        self._pool_rr = 0

    # -- namespace management ---------------------------------------------------

    def create_namespace(self, name: str, colocate: bool = False,
                         index_replicas: Optional[int] = None
                         ) -> MantleSystem:
        """Provision one namespace: a fresh root id and IndexNode group.

        ``colocate=True`` places this namespace's replicas on the shared
        host pool (several namespaces then compete for the same CPUs,
        which is the §7.2 trade-off worth measuring).  ``index_replicas``
        sizes this namespace's IndexNode group; everything else, its cost
        model included, is the deployment's.
        """
        if name in self.namespaces:
            raise ValueError(f"namespace {name!r} already exists")
        config = self.config if index_replicas is None else \
            self.config.copy(index_replicas=index_replicas)
        index_hosts = None
        if colocate:
            if not self._pool:
                raise ValueError("deployment has no shared index pool")
            replicas = config.index_replicas + config.num_learners
            index_hosts = []
            for _ in range(replicas):
                index_hosts.append(self._pool[self._pool_rr % len(self._pool)])
                self._pool_rr += 1
        system = MantleSystem(
            config,
            sim=self.sim, network=self.network,
            tafdb=self.tafdb, ids=self.ids,
            root_id=self.ids.next(),
            namespace=name,
            index_hosts=index_hosts,
            seed=self.seed + len(self.namespaces) + 1)
        system.startup()
        self.namespaces[name] = system
        return system

    def namespace(self, name: str) -> MantleSystem:
        if name not in self.namespaces:
            raise KeyError(f"unknown namespace {name!r}")
        return self.namespaces[name]

    def shutdown(self) -> None:
        for system in self.namespaces.values():
            system.shutdown()
        self.tafdb.stop_compactors()

    # -- observability --------------------------------------------------------------

    @property
    def total_metadata_rows(self) -> int:
        """Rows across every namespace, all in the one shared TafDB."""
        return self.tafdb.total_rows

    def namespace_sizes(self) -> Dict[str, int]:
        """IndexTable entry count (directories) per namespace."""
        out = {}
        for name, system in self.namespaces.items():
            leader = system.index_group.current_leader()
            node = leader if leader is not None else \
                next(iter(system.index_group.nodes.values()))
            out[name] = len(node.state_machine.table)
        return out
