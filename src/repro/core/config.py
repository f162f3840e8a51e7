"""Configuration for a Mantle deployment.

Every optimisation in §5 is an independent toggle so the Figure 16 ablation
(`Mantle-base`, `+pathcache`, `+raftlogbatch`, `+delta record`,
`+follower read`) can be expressed as configurations.  Beside the toggles a
config holds the cluster shape, two thresholds tests lower to reach delta
mode and Raft snapshots in a few ops, and ``costs``.

Timings no experiment varies are not fields here: the invalidator and
compaction periods, the delta-activation window and the Raft batch window
and size are the defaults of the component that owns them
(:class:`~repro.indexnode.server.IndexNodeService`,
:class:`~repro.tafdb.cluster.TafDBCluster`,
:class:`~repro.tafdb.contention.ContentionRegistry`,
:class:`~repro.raft.node.RaftConfig`).  Permissions are always enforced.
Instruments are not fields either: a deployment is traced or telemetered
through its simulator's ``tracer``/``telemetry`` (``MANTLE_TRACE=1`` /
``MANTLE_TELEMETRY=1`` process-wide), the same for every system, and a
live role through ``mantle-serve --trace/--telemetry``.

``costs`` is the one cost model every component of a deployment runs with
(hosts, network, Raft, TafDB, IndexNodes, proxies).  A what-if rerun builds
the system from a scaled copy of it
(:meth:`~repro.sim.host.CostOverrides.apply`).
"""

from __future__ import annotations

import dataclasses

from repro.sim.host import CostModel


@dataclasses.dataclass
class MantleConfig:
    """Tunable knobs for a Mantle cluster.

    Attributes mirror the paper's design points:

    * ``path_cache_k`` — number of trailing path levels excluded from
      TopDirPathCache (§5.1.1; production value 3, Figure 18 sweeps 1-5).
    * ``enable_path_cache`` — TopDirPathCache on/off ('+pathcache').
    * ``enable_follower_read`` / ``num_learners`` — replica lookup offload
      (§5.1.3, '+follower read', Figure 19b '+learners').
    * ``enable_delta_records`` — out-of-place attribute updates (§5.2.1).
    * ``delta_activation_threshold`` — delta records activate only under
      sustained contention: this many aborts on one directory within the
      contention registry's window flips the directory to delta mode.
    * ``enable_raft_batching`` — Raft log batching (§5.2.3).
    """

    # --- cluster shape (Table 2) -----------------------------------------
    num_db_servers: int = 18
    num_db_shards: int = 72
    num_proxies: int = 4
    index_replicas: int = 3
    num_learners: int = 0
    index_cores: int = 64
    db_cores: int = 32
    proxy_cores: int = 32

    # --- §5.1 lookup optimisations ---------------------------------------
    enable_path_cache: bool = True
    path_cache_k: int = 3
    enable_follower_read: bool = True

    # --- §5.2 directory modification optimisations ------------------------
    enable_delta_records: bool = True
    #: Aborts-per-directory within the window that activate delta mode.
    delta_activation_threshold: int = 3
    enable_raft_batching: bool = True
    #: Snapshot + compact the IndexNode Raft log every N applied entries
    #: (keeps long-lived namespaces' logs bounded; 0 disables).
    raft_snapshot_threshold: int = 1024

    # --- Figure 20 study: optional proxy-side metadata caching -------------
    #: Entries of an AM-Cache-style lookup cache in each proxy.  Disabled by
    #: default: the paper's point is that Mantle's single-RPC lookups leave
    #: little for client caching to win (§6.5 "Adding metadata caching").
    client_cache_capacity: int = 0

    # --- costs -------------------------------------------------------------
    costs: CostModel = dataclasses.field(default_factory=CostModel)

    def copy(self, **overrides) -> "MantleConfig":
        dup = dataclasses.replace(self)
        for key, value in overrides.items():
            if not hasattr(dup, key):
                raise AttributeError(f"unknown MantleConfig field {key!r}")
            setattr(dup, key, value)
        return dup

    @classmethod
    def base(cls) -> "MantleConfig":
        """Mantle-base from Figure 16: every §5 optimisation disabled."""
        return cls(
            enable_path_cache=False,
            enable_follower_read=False,
            enable_delta_records=False,
            enable_raft_batching=False,
        )

    @classmethod
    def small(cls, **overrides) -> "MantleConfig":
        """A laptop-friendly cluster shape for interactive use and tests.

        Three DB servers with six shards, two proxies and a three-replica
        IndexNode group — the default behind ``MantleClient()``.
        """
        return cls(num_db_servers=3, num_db_shards=6, num_proxies=2,
                   index_replicas=3, num_learners=0,
                   index_cores=8, db_cores=8, proxy_cores=8).copy(**overrides)

    def validate(self) -> None:
        if self.path_cache_k < 0:
            raise ValueError("path_cache_k must be >= 0")
        if self.index_replicas < 1:
            raise ValueError("need at least one IndexNode replica")
        if self.num_db_shards < 1 or self.num_db_servers < 1:
            raise ValueError("need at least one DB shard and server")
        if self.num_db_shards % self.num_db_servers != 0:
            raise ValueError("shards must divide evenly across DB servers")
