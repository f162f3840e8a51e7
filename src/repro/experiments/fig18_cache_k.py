"""Figure 18: impact of k in TopDirPathCache.

Paper: lookup latency rises with k (at k=3, normalised latency 0.32 versus
Mantle-base, 31.1 % above k=1) while memory falls steeply (k=3 uses 12 % of
the memory of caching every result — an 88 % reduction); production uses
k=3.  Follower read is disabled for this study.

Reproduction detail: the memory effect needs a namespace whose fan-out
lives near the leaves (many sibling directories per deep parent) — exactly
what production trees look like.  We build such a tree (a shared trunk that
fans out over the last three levels), issue lookups at saturation, and
report latency, realised cache memory, and the ns4-derived cacheable
fraction per k.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.bench.report import Table, ratio
from repro.core.config import MantleConfig
from repro.experiments.base import Claim, pick, register, rows_by
from repro.paths import truncate_prefix
from repro.workloads.namespace import ensure_chain
from repro.workloads.profiles import profile_by_name


class _BushyLookupWorkload:
    """objstat over a trunk-then-fanout tree: trunk depth 6, then 8x4x4
    leaf directories each holding objects (depth-11 object paths)."""

    TRUNK_DEPTH = 6
    FANOUT = (8, 4, 4)
    OBJECTS_PER_LEAF = 2

    def __init__(self, num_clients: int, items: int, seed: int = 5):
        self.num_clients = num_clients
        self.items = items
        self._objects: List[str] = []
        self._rng = random.Random(seed)

    def setup(self, system) -> None:
        trunk = ensure_chain(system, "/bushy", self.TRUNK_DEPTH - 1)
        self._objects = []
        # One call per leaf keeps each leaf's objects right after it in id
        # order; the leaf's loaded ancestors are skipped.
        for a in range(self.FANOUT[0]):
            pa = f"{trunk}/a{a}"
            for b in range(self.FANOUT[1]):
                pb = f"{pa}/b{b}"
                for c in range(self.FANOUT[2]):
                    pc = f"{pb}/c{c}"
                    objects = [f"{pc}/o{o}.bin"
                               for o in range(self.OBJECTS_PER_LEAF)]
                    system.bulk_load((pa, pb, pc), objects)
                    self._objects += objects

    def client_ops(self, cid: int):
        rng = random.Random((cid << 16) ^ 77)
        for _ in range(self.items):
            yield ("objstat", (rng.choice(self._objects),))


def _measure(k: int, enable_cache: bool, clients: int, items: int):
    config = MantleConfig(enable_follower_read=False,
                          enable_path_cache=enable_cache, path_cache_k=k)
    system = build_system("mantle", "quick", config=config)
    try:
        workload = _BushyLookupWorkload(clients, items)
        metrics = run_workload(system, workload)
        leader = system.index_group.leader_or_raise()
        cache = leader.state_machine.cache
        table = leader.state_machine.table
        return (metrics.mean_latency_us("objstat"), cache.memory_bytes,
                len(cache), cache.hit_rate, table.probes_per_resolve)
    finally:
        system.shutdown()


def _ns4_coverage(k: int) -> float:
    """Fraction of ns4's directories cacheable at truncation distance k."""
    spec = profile_by_name("ns4").synthesize(scale_entries=2000, seed=44)
    cacheable = set()
    for path in spec.objects:
        prefix = truncate_prefix(path, k)
        if prefix != "/":
            cacheable.add(prefix)
    return len(cacheable) / max(1, len(spec.directories))


def claims(tables):
    by_k = rows_by(tables[0], "k")
    latencies = [by_k[k]["latency us"] for k in (1, 2, 3, 4, 5)]
    yield Claim("latency grows with k", latencies,
                latencies == sorted(latencies))
    for header, bound in (("memory vs k=1", 0.35),
                          ("normalised to base", 0.8), ("vs k=1", 1.6)):
        yield Claim(f"k=3 {header} < {bound}", by_k[3][header],
                    by_k[3][header] < bound)
    coverage = [by_k[k]["ns4 coverage"] for k in (1, 3, 5)]
    yield Claim("ns4 coverage: k=1 >= k=3 >= k=5", coverage,
                coverage[0] >= coverage[1] >= coverage[2])


@register("fig18", "Impact of k in TopDirPathCache",
          "latency grows with k, memory shrinks ~88% from k=1 to k=3; "
          "k=3 is the production balance point", claims)
def run(scale: str = "quick") -> List[Table]:
    clients = pick(scale, 112, 256)
    items = pick(scale, 12, 24)
    base = _measure(0, False, clients, items)
    base_latency, base_probes = base[0], base[4]
    table = Table(
        "Figure 18: lookup latency and cache memory vs k (depth-11 paths)",
        ["k", "latency us", "normalised to base", "vs k=1",
         "cache entries", "cache bytes", "memory vs k=1", "hit rate",
         "index probes/resolve", "ns4 coverage"])
    k1_latency = None
    k1_memory = None
    for k in (1, 2, 3, 4, 5):
        latency, memory, entries, hit_rate, probes = _measure(
            k, True, clients, items)
        if k == 1:
            k1_latency, k1_memory = latency, memory
        table.add_row(
            k,
            round(latency, 1),
            round(ratio(latency, base_latency), 3),
            round(ratio(latency, k1_latency), 3),
            entries,
            memory,
            round(ratio(memory, k1_memory), 3),
            round(hit_rate, 3),
            round(probes, 2),
            round(_ns4_coverage(k), 3))
    table.add_note(f"Mantle-base (cache off) latency: {base_latency:.1f} us; "
                   "paper: k=3 normalised latency 0.32, memory 12% of k=1, "
                   "31.1% slower than k=1")
    table.add_note("index probes/resolve is the IndexTable walk the cache "
                   f"could not shortcut (cache-off baseline: "
                   f"{base_probes:.2f})")
    return [table]
