"""Extension (§7.2 "Optimization potential"): the RDMA RPC proof of concept.

Paper: "Mantle's scalability is currently constrained by the CPU resource
of IndexNode... a proof-of-concept implementation demonstrates that
adopting RDMA in the RPC framework can boost per-node path resolution
throughput from 500K ops/s to 1M ops/s."

RDMA removes most of the per-RPC CPU handling (kernel bypass, zero-copy);
in the cost model that is ``index_rpc_overhead_us``.  We sweep the leader's
lookup throughput at saturation with the TCP-like default versus an
RDMA-like overhead, expecting roughly the paper's 2x.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.experiments.base import (Claim, mdtest_metrics, pick, register,
                                    rows_by)
from repro.sim.host import CostModel


def _throughput(costs: CostModel, clients: int, items: int) -> float:
    config = MantleConfig(enable_follower_read=False, costs=costs)
    return mdtest_metrics("mantle", "objstat", clients=clients, items=items,
                          config=config, costs=costs).throughput_kops()


def claims(tables):
    rdma, tcp = (rows_by(tables[0], "rpc framework")[name]
                 for name in ("rdma", "tcp"))
    yield Claim("rdma speedup > 1.4", rdma["speedup"], rdma["speedup"] > 1.4)
    a, b = (row["lookup throughput Kop/s"] for row in (rdma, tcp))
    yield Claim("lookup Kop/s: rdma > tcp", (a, b), a > b)


@register("ext-rdma", "RDMA RPC proof of concept (extension)",
          "RDMA halves IndexNode CPU per lookup, ~doubling per-node "
          "resolution throughput (500K -> 1M ops/s in the paper's PoC)",
          claims)
def run(scale: str = "quick") -> List[Table]:
    clients = pick(scale, 160, 384)
    items = pick(scale, 10, 20)
    baseline = CostModel()
    # Kernel-bypass RPC: most of the request-handling CPU disappears and
    # the wire latency drops.
    rdma = baseline.copy(index_rpc_overhead_us=4.0, net_one_way_us=15.0)
    table = Table(
        "Extension: leader-only lookup throughput, TCP RPC vs RDMA RPC",
        ["rpc framework", "rpc overhead us", "one-way us",
         "lookup throughput Kop/s", "speedup"])
    tcp_kops = _throughput(baseline, clients, items)
    rdma_kops = _throughput(rdma, clients, items)
    table.add_row("tcp", baseline.index_rpc_overhead_us,
                  baseline.net_one_way_us, round(tcp_kops, 1), 1.0)
    table.add_row("rdma", rdma.index_rpc_overhead_us, rdma.net_one_way_us,
                  round(rdma_kops, 1), round(ratio(rdma_kops, tcp_kops), 2))
    table.add_note("paper PoC: 500K -> 1M ops/s per node (2.0x)")
    return [table]
