"""Extension (§7.2): co-locating IndexNodes of multiple namespaces.

Paper: "we maintain a shared pool of physical servers to host the IndexNode
replicas for all namespaces... leaders of smaller namespaces can share a
node, while leaders of large, high-traffic namespaces can be assigned
exclusive nodes."

We measure the trade-off: two namespaces on a shared 3-host pool versus
dedicated hosts, under (a) light traffic — where sharing is free — and
(b) a noisy neighbour — where the victim's latency inflates, motivating
the paper's dynamic leader rebalancing.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.core.multitenant import MantleDeployment
from repro.experiments.base import Claim, pick, register, rows_by
from repro.sim.stats import MetricSet
from repro.ops import make_op


def _measure(colocate: bool, victim_clients: int, neighbor_clients: int,
             ops: int):
    config = MantleConfig(num_db_servers=6, num_db_shards=24, db_cores=4,
                          num_proxies=4, proxy_cores=16, index_cores=4)
    deployment = MantleDeployment(
        config, shared_index_pool=3 if colocate else 0)
    try:
        victim = deployment.create_namespace("victim", colocate=colocate)
        neighbor = deployment.create_namespace("neighbor",
                                               colocate=colocate)
        for system in (victim, neighbor):
            system.bulk_mkdir("/w")
            system.bulk_create("/w/obj")
        sim = deployment.sim
        measured = MetricSet()

        def client(system, count, metrics):
            for _ in range(count):
                yield from system.perform(make_op("objstat", "/w/obj"), None,
                                          metrics)

        procs = [sim.process(client(victim, ops, measured))
                 for _ in range(victim_clients)]
        procs += [sim.process(client(neighbor, ops, None))
                  for _ in range(neighbor_clients)]
        done = sim.all_of(procs)
        sim.run_until(done)
        return measured.mean_latency_us("objstat")
    finally:
        deployment.shutdown()


def claims(tables):
    latency = {key: row["victim mean latency us"] for key, row in
               rows_by(tables[0], "placement", "neighbour load").items()}
    a, b = (latency[("dedicated hosts", load)]
            for load in ("96 clients", "idle"))
    yield Claim("dedicated hosts: victim latency at 96 clients <= 1.02x "
                "idle", (a, b), a <= 1.02 * b)
    a, b = (latency[("shared pool", load)] for load in ("96 clients", "idle"))
    yield Claim("shared pool: victim latency at 96 clients > 1.05x idle",
                (a, b), a > 1.05 * b)


@register("ext-coloc", "IndexNode co-location trade-off (extension)",
          "sharing a host pool is free at light load; a noisy neighbour "
          "inflates the victim's latency, motivating leader rebalancing",
          claims)
def run(scale: str = "quick") -> List[Table]:
    ops = pick(scale, 15, 30)
    table = Table(
        "Extension: victim namespace objstat latency (us)",
        ["placement", "neighbour load", "victim mean latency us",
         "vs dedicated"])
    dedicated_quiet = _measure(False, 4, 0, ops)
    dedicated_noisy = _measure(False, 4, 96, ops)
    shared_quiet = _measure(True, 4, 0, ops)
    shared_noisy = _measure(True, 4, 96, ops)
    table.add_row("dedicated hosts", "idle", round(dedicated_quiet, 1), 1.0)
    table.add_row("dedicated hosts", "96 clients",
                  round(dedicated_noisy, 1),
                  round(ratio(dedicated_noisy, dedicated_quiet), 2))
    table.add_row("shared pool", "idle", round(shared_quiet, 1),
                  round(ratio(shared_quiet, dedicated_quiet), 2))
    table.add_row("shared pool", "96 clients", round(shared_noisy, 1),
                  round(ratio(shared_noisy, dedicated_quiet), 2))
    table.add_note("dedicated placement isolates the victim from the "
                   "neighbour; the shared pool does not — the cost side of "
                   "§7.2's utilisation win")
    return [table]
