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
from repro.experiments.base import Case, Claim, register, rows_by, run_case
from repro.sim.host import CostModel

#: Leader-only lookups at saturation over each RPC framework, TCP first.
#: Kernel-bypass RPC: most of the request-handling CPU disappears and the
#: wire latency drops.
CASES = tuple(
    Case(name, "mantle", "objstat", clients=(160, 384), items=(10, 20),
         config=MantleConfig(enable_follower_read=False, costs=costs))
    for name, costs in (("tcp", CostModel()),
                        ("rdma", CostModel(index_rpc_overhead_us=4.0,
                                           net_one_way_us=15.0))))


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
    table = Table(
        "Extension: leader-only lookup throughput, TCP RPC vs RDMA RPC",
        ["rpc framework", "rpc overhead us", "one-way us",
         "lookup throughput Kop/s", "speedup"])
    kops = [run_case(case, scale).metrics.throughput_kops()
            for case in CASES]
    for case, value in zip(CASES, kops):
        costs = case.config.costs
        table.add_row(case.label, costs.index_rpc_overhead_us,
                      costs.net_one_way_us, round(value, 1),
                      round(ratio(value, kops[0]), 2))
    table.add_note("paper PoC: 500K -> 1M ops/s per node (2.0x)")
    return [table]
