"""Cluster builders matching the paper's Table 2 deployments.

All four systems share the same client fleet and (where applicable) DB
cluster shape; Mantle/LocoFS/InfiniFS additionally get their 3 dedicated
index/directory/coordinator servers.  ``scale`` picks event-budget-friendly
shapes:

* ``"quick"`` — small core counts, fewer shards: unit tests and smoke runs;
* ``"paper"`` — the Table 2 shape (21 servers worth of capacity).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import InfiniFSSystem, LocoFSSystem, TectonicSystem
from repro.core.config import MantleConfig
from repro.core.service import MantleSystem
from repro.sim.host import CostModel

SYSTEMS = ("tectonic", "infinifs", "locofs", "mantle")

_SCALES = {
    # (db_servers, db_shards, db_cores, proxies, proxy_cores, index_cores)
    "quick": (6, 24, 4, 4, 16, 16),
    "paper": (18, 72, 32, 8, 32, 64),
}


def build_system(name: str, scale: str = "quick",
                 config: Optional[MantleConfig] = None,
                 costs: Optional[CostModel] = None, **overrides):
    """Build and start one system at the requested scale.

    ``overrides`` are forwarded to the system constructor (baselines) or
    applied to the MantleConfig (mantle), so experiments can toggle
    individual features (learners, AM-Cache, delta records...).  Without
    ``costs``, Mantle keeps its config's cost model and baselines get the
    default one.
    """
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    db_servers, db_shards, db_cores, proxies, proxy_cores, index_cores = \
        _SCALES[scale]
    costs = costs or (config.costs if config else CostModel())

    if name == "mantle":
        cfg = config or MantleConfig()
        cfg = cfg.copy(
            num_db_servers=db_servers, num_db_shards=db_shards,
            db_cores=db_cores, num_proxies=proxies,
            proxy_cores=proxy_cores, index_cores=index_cores,
            costs=costs, **overrides)
        system = MantleSystem(cfg)
    elif name == "tectonic":
        # Tectonic gets the 3 extra servers as DB capacity (Table 2: 21).
        system = TectonicSystem(
            num_db_servers=db_servers + 3,
            num_db_shards=db_shards + 3 * (db_shards // db_servers),
            db_cores=db_cores, num_proxies=proxies,
            proxy_cores=proxy_cores, costs=costs, **overrides)
    elif name == "infinifs":
        system = InfiniFSSystem(
            num_db_servers=db_servers, num_db_shards=db_shards,
            db_cores=db_cores, num_proxies=proxies,
            proxy_cores=proxy_cores, coordinator_cores=index_cores,
            costs=costs, **overrides)
    elif name == "locofs":
        system = LocoFSSystem(
            num_db_servers=db_servers, num_db_shards=db_shards,
            db_cores=db_cores, num_proxies=proxies,
            proxy_cores=proxy_cores, dir_server_cores=index_cores,
            costs=costs, **overrides)
    else:
        raise ValueError(f"unknown system {name!r}; pick from {SYSTEMS}")
    system.startup()
    return system
