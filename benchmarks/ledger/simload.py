"""The five simulated workloads: inputs from a seed, one repetition at a time.

A repetition builds fresh systems, pre-populates them, drains the
workload's closed-loop client streams through ``run_workload`` and reads
the public counters back.  Host time (wall, CPU) is measured around the
``run_workload`` calls only; everything simulated repeats exactly for a
given seed, which the caller checks.
"""

from __future__ import annotations

import collections
import gc
import math
import random
import resource
import statistics
import time
from typing import Dict, List, Tuple

from benchmarks.ledger.common import Rep, ratio
from repro.bench import build_system, run_workload
from repro.bench.analyze import segment_run
from repro.bench.audit import check_consistency
from repro.bench.inspect import host_utilization_table
from repro.sim.stats import percentile
from repro.sim.telemetry import Telemetry, latency_digests
from repro.sim.trace import TailKeeper, Tracer
from repro.workloads import MdtestWorkload, MixedWorkload, build_namespace
from repro.workloads.namespace import ensure_chain

CLIENTS = 32
#: The paper's mdtest depth.
DEPTH = 10
#: Simulated time given to replication, compaction and purges to settle
#: before the consistency audit (the soak test's figure).
DRAIN_US = 300_000


def _client_depth(rng: random.Random) -> int:
    """A private working directory's depth: a clipped lognormal around
    ``DEPTH``, the shape of the paper's namespaces (section 3).  Simulated
    latency grows with depth, so on workloads whose paths would otherwise
    cost the same for every seed the simulated results follow the seed."""
    return max(4, min(24, round(rng.lognormvariate(math.log(DEPTH), 0.2))))


class Alternating:
    """One client per entry of ``parts``, each a tuple of single-client
    mdtest workloads (their pre-fill and paths) whose streams the client
    alternates between, ``passes`` times over."""

    def __init__(self, parts, passes: int):
        self.parts = parts
        self.passes = passes
        self.num_clients = len(parts)

    def setup(self, system) -> None:
        for streams in self.parts:
            for stream in streams:
                stream.setup(system)

    def client_ops(self, cid: int):
        for _ in range(self.passes):
            for ops in zip(*(s.client_ops(0) for s in self.parts[cid])):
                yield from ops


class SharedCommit:
    """One phase of the Spark-commit pattern (section 3.2): every client
    either makes ``items`` directories in the one shared directory, or
    renames ``items`` directories into it from a private source."""

    def __init__(self, op: str, items: int, root: str,
                 source_depths: List[int]):
        self.op = op
        self.items = items
        self.root = root
        self.source_depths = source_depths
        self.num_clients = len(source_depths)

    def setup(self, system) -> None:
        # Chains end one level above the entries, as in MdtestWorkload.
        self.shared = ensure_chain(system, f"{self.root}/shared", DEPTH - 3)
        self.sources = []
        if self.op == "dirrename":
            for cid, depth in enumerate(self.source_depths):
                source = ensure_chain(system, f"{self.root}/c{cid}",
                                      depth - 3)
                for i in range(self.items):
                    system.bulk_mkdir(f"{source}/mv{cid}_{i}")
                self.sources.append(source)

    def client_ops(self, cid: int):
        for i in range(self.items):
            if self.op == "mkdir":
                yield ("mkdir", (f"{self.shared}/mk{cid}_{i}",))
            else:
                yield ("dirrename", (f"{self.sources[cid]}/mv{cid}_{i}",
                                     f"{self.shared}/mv{cid}_{i}"))


def make_stages(name: str, seed: int, scale: float
                ) -> List[Tuple[str, list]]:
    """``[(system name, [workload, ...])]``: one fresh system per stage,
    its workloads run back to back on it."""
    def n(count: int) -> int:
        return max(1, round(count * scale))

    def mdtest(op, mode, items, depth=DEPTH, root=f"/s{seed}",
               clients=CLIENTS):
        return MdtestWorkload(op, mode=mode, depth=depth, items=n(items),
                              num_clients=clients, root=root)

    rng = random.Random(seed)
    if name == "sim_read":
        parts = []
        for cid in range(CLIENTS):
            depth = _client_depth(rng)
            parts.append(tuple(
                mdtest(op, "exclusive", 200, depth, f"/s{seed}/r{cid}", 1)
                for op in ("objstat", "dirstat")))
        return [("mantle", [Alternating(parts, passes=2)])]
    if name == "sim_dirmod":
        depths = [_client_depth(rng) for _ in range(CLIENTS)]
        return [("mantle", [SharedCommit(op, n(24), f"/s{seed}", depths)
                            for op in ("mkdir", "dirrename")])]
    if name in ("sim_mixed", "sim_obs"):
        spec = build_namespace(num_dirs=max(100, n(2000)),
                               objects_per_dir=10, seed=seed)
        return [("mantle", [MixedWorkload(
            spec, num_clients=CLIENTS, ops_per_client=n(400), seed=seed)])]
    if name == "sim_baselines":
        return [(system, [mdtest("objstat", "exclusive", 120),
                          mdtest("mkdir", "shared", 16)])
                for system in ("tectonic", "infinifs", "locofs")]
    raise ValueError(f"unknown simulated workload {name!r}")


def _counters(system) -> Dict[str, float]:
    """Raw public counters of one system (differenced around the run)."""
    hosts = host_utilization_table(system, 1.0)
    out = {
        "rpcs": system.network.rpc_count,
        "fsyncs": sum(hosts.column("fsyncs")),
        "cpu_busy_us": 1000.0 * sum(hosts.column("cpu busy ms")),
        "tafdb_commits": system.tafdb.total_commits,
        "tafdb_aborts": system.tafdb.total_aborts,
    }
    group = getattr(system, "index_group", None) or \
        getattr(system, "dir_group", None)
    leader = group.current_leader() if group is not None else None
    if leader is not None:
        out.update(raft_msgs=group.messages_sent,
                   raft_proposals=leader.proposals,
                   raft_batches=leader.batches_flushed,
                   raft_entries=leader.entries_flushed)
        cache = getattr(leader.state_machine, "cache", None)
        if cache is not None:
            out.update(
                cache_hits=cache.hits, cache_misses=cache.misses,
                purged=leader.state_machine.invalidator.purged_entries)
    return out


def run_rep(name: str, stages, profile=None, obs_rig: bool = False) -> Rep:
    """One repetition of simulated workload ``name`` on freshly built
    systems.

    ``profile`` (a ``cProfile.Profile``) is enabled around ``run_workload``
    only; ``obs_rig`` attaches the triage rig from outside.
    """
    gc.collect()
    rep = Rep()
    raw: collections.Counter = collections.Counter()
    p50s: List[float] = []
    p99s: List[float] = []
    sim_us = 0.0
    op_rpcs = 0.0
    for system_name, workloads in stages:
        started = time.perf_counter()
        system = build_system(system_name, "quick")
        for workload in workloads:
            workload.setup(system)
        if obs_rig:
            tracer = Tracer(keeper=TailKeeper())
            tracer.bind(system.sim)
            system.sim.tracer = tracer
            telemetry = system.sim.telemetry = Telemetry()
        rep.setup_s += time.perf_counter() - started

        before = _counters(system)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if profile is not None:
            profile.enable()
        runs = [run_workload(system, workload, setup=False)
                for workload in workloads]
        if obs_rig:
            segment_run(system, runs[-1], telemetry)
        if profile is not None:
            profile.disable()
        rep.wall_s += time.perf_counter() - wall0
        rep.cpu_s += time.process_time() - cpu0

        for key, value in _counters(system).items():
            raw[key] += value - before[key]
        if obs_rig:
            rep.layer.update({
                "obs.spans": tracer.finished,
                "obs.kept_spans": tracer.keeper.kept_spans,
                "obs.dropped_spans": tracer.dropped,
                "obs.digest_windows": sum(
                    len(digest.windows)
                    for _op, digest in latency_digests(telemetry)),
            })
        latencies: List[float] = []
        for metrics in runs:
            rep.attempted += metrics.ops_completed + metrics.ops_failed
            rep.failed += metrics.ops_failed
            sim_us += metrics.duration_us
            for recorder in metrics.latency.values():
                latencies.extend(recorder.samples)
            op_rpcs += sum(r.total for r in metrics.rpc_rounds.values())
        latencies.sort()
        p50s.append(percentile(latencies, 50))
        p99s.append(percentile(latencies, 99))
        if system_name == "mantle":
            leader = system.index_group.current_leader()
            raw["cache_entries"] = len(leader.state_machine.cache)
            system.sim.run(until=system.sim.now + DRAIN_US)
            rep.problems += [f"{name}: audit {violation}"
                             for violation in check_consistency(system)]
        system.shutdown()

    done = rep.done
    rep.svc_kops = ratio(done, sim_us) * 1e3
    # One percentile per system, averaged: a pooled median over systems
    # with different latencies sits wherever the middle one happens to.
    rep.svc_p50_us = statistics.fmean(p50s)
    rep.svc_p99_us = statistics.fmean(p99s)
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    rep.layer.update({
        "sim.rpcs_per_op": ratio(raw["rpcs"], done),
        "sim.fsyncs_per_op": ratio(raw["fsyncs"], done),
        "sim.cpu_busy_us_per_op": ratio(raw["cpu_busy_us"], done),
        "raft.proposals": raw["raft_proposals"],
        "raft.mean_batch": ratio(raw["raft_entries"], raw["raft_batches"]),
        "raft.msgs_per_commit": ratio(raw["raft_msgs"],
                                      raw["raft_proposals"]),
        "tafdb.commits": raw["tafdb_commits"],
        "tafdb.abort_ratio": ratio(
            raw["tafdb_aborts"], raw["tafdb_commits"] + raw["tafdb_aborts"]),
        "indexnode.cache_hit_rate": ratio(
            raw["cache_hits"], raw["cache_hits"] + raw["cache_misses"]),
        "indexnode.cache_entries": raw["cache_entries"],
        "indexnode.invalidator_purged": raw["purged"],
        "core.rpcs_per_op": ratio(op_rpcs, done),
    })
    if rep.failed:
        rep.problems.append(f"{name}: {rep.failed} of {rep.attempted} "
                            "operations failed")
    return rep
