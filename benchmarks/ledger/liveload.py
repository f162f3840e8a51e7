"""``live_mixed``: the three-process cluster under two closed-loop clients.

One repetition spawns a fresh ``ProcessCluster`` with the WAL on (one real
``os.fsync`` per durable commit), warms it up, then times a fixed number
of ``create -> objstat -> dirstat -> listdir -> objstat -> delete`` cycles
per client over a bounded namespace, checking every reply.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from typing import Dict, List, Tuple

from benchmarks.ledger.common import Rep, ratio
from repro.errors import MetadataError
from repro.runtime import obs
from repro.runtime.client import LiveClient
from repro.runtime.live import ProcessCluster
from repro.sim.stats import percentile
from repro.sim.trace import Tracer

CONNECTIONS = 2
DIRS_PER_CLIENT = 4
WARMUP_CYCLES = 34          # 204 unmeasured ops per client
CYCLE = ("create", "objstat", "dirstat", "listdir", "objstat", "delete")
OP_TYPES = ("create", "objstat", "dirstat", "listdir", "delete")
BARRIER_TIMEOUT_S = 120.0
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _role_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of one role process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _role_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(path) for name in names)


class _Client:
    """One connection's closed loop, its samples and what it found wrong."""

    def __init__(self, index: int, seed: int, cycles: int, traced: bool):
        self.index = index
        self.cycles = cycles
        self.traced = traced
        self.dirs = [f"/s{seed}c{index}_d{k}" for k in range(DIRS_PER_CLIENT)]
        self.samples: List[Tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.snapshot = None

    def _cycle(self, client: LiveClient, number: int, record: bool) -> None:
        folder = self.dirs[number % DIRS_PER_CLIENT]
        name = f"o{number}"
        path = f"{folder}/{name}"
        created = None
        for op in CYCLE:
            started = time.perf_counter()
            try:
                if op == "create":
                    created = reply = int(client.create(path))
                elif op == "objstat":
                    reply = client.objstat(path).id
                elif op == "dirstat":
                    reply = client.dirstat(folder).is_dir
                elif op == "listdir":
                    reply = list(client.listdir(folder))
                else:
                    reply = client.delete(path)
            except MetadataError as exc:
                if record:
                    self.attempted += 1
                    self.failed += 1
                self.problems.append(f"{op} {path} raised {exc!r}")
                continue
            if record:
                self.attempted += 1
                self.samples.append((op, time.perf_counter() - started))
            if op == "objstat" and reply != created:
                self.problems.append(
                    f"objstat {path} returned id {reply}, create gave "
                    f"{created}")
            elif op == "dirstat" and reply is not True:
                self.problems.append(f"dirstat {folder} is not a directory")
            elif op == "listdir" and reply != [name]:
                self.problems.append(
                    f"listdir {folder} returned {reply}, expected [{name!r}]")

    def run(self, endpoint: str, barrier: threading.Barrier) -> None:
        try:
            tracer = Tracer() if self.traced else None
            with LiveClient(endpoint, tracer=tracer) as client:
                # Distinct trace-context names keep the two clients' span
                # ids apart when the role snapshots are merged.
                client.PROCESS_NAME = f"client-{self.index}"
                for folder in self.dirs:
                    client.mkdir(folder)
                for number in range(WARMUP_CYCLES):
                    self._cycle(client, number, record=False)
                barrier.wait(BARRIER_TIMEOUT_S)      # warmed up
                if tracer is not None:
                    tracer.reset()
                barrier.wait(BARRIER_TIMEOUT_S)      # go
                for number in range(WARMUP_CYCLES,
                                    WARMUP_CYCLES + self.cycles):
                    self._cycle(client, number, record=True)
                barrier.wait(BARRIER_TIMEOUT_S)      # done
                for folder in self.dirs:
                    left = list(client.listdir(folder))
                    if left:
                        self.problems.append(
                            f"final listing of {folder} is {left}, not empty")
                if tracer is not None:
                    self.snapshot = client.trace_snapshot()
        except threading.BrokenBarrierError:
            pass
        except Exception:
            self.problems.append(
                f"client {self.index} died: {traceback.format_exc()}")
            barrier.abort()


def _quarter_drift(clients: List[_Client], op: str) -> float:
    """Mean latency of ``op`` in the last quarter of each client's run over
    the first quarter (1.0 = flat)."""
    first: List[float] = []
    last: List[float] = []
    for client in clients:
        series = [lat for name, lat in client.samples if name == op]
        quarter = len(series) // 4
        if quarter:
            first += series[:quarter]
            last += series[-quarter:]
    return ratio(statistics.fmean(last), statistics.fmean(first)) \
        if first else 0.0


def _phase_metrics(snapshots: List[dict]) -> Dict[str, float]:
    """Per-op wire/fsync/cpu/queue/other microseconds over every op kind."""
    phases = obs.phase_breakdown(snapshots).values()
    count = sum(p.count for p in phases)
    out = {}
    accounted = 0.0
    for kind in obs.PHASE_KINDS:
        total = sum(p.phase_us.get(kind, 0.0) for p in phases)
        accounted += total
        out[f"live.phase.{kind}_us"] = ratio(total, count)
    latency = sum(p.total_latency_us for p in phases)
    out["live.phase.other_us"] = ratio(max(0.0, latency - accounted), count)
    return out


def run_rep(seed: int, cycles: int, workdir: str, traced: bool = False) -> Rep:
    """One repetition: ``cycles`` measured cycles per client on a fresh
    cluster whose WAL lives in a fresh directory under ``workdir``."""
    rep = Rep()
    clients = [_Client(i, seed, cycles, traced) for i in range(CONNECTIONS)]
    barrier = threading.Barrier(CONNECTIONS + 1)
    started = time.perf_counter()
    os.makedirs(workdir, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
    cluster = ProcessCluster(wal_dir=wal_dir, trace=traced, telemetry=traced)
    threads: List[threading.Thread] = []
    try:
        endpoint = cluster.start()
        pids = {role: proc.pid for role, proc in cluster.processes.items()}
        threads = [threading.Thread(target=client.run,
                                    args=(endpoint, barrier))
                   for client in clients]
        for thread in threads:
            thread.start()
        try:
            barrier.wait(BARRIER_TIMEOUT_S)          # warmed up
            if traced:
                obs.collect_snapshots(cluster.endpoints, method="obs.reset")
            rep.setup_s = time.perf_counter() - started
            wal0 = _tree_bytes(wal_dir)
            role0 = {role: _role_cpu_s(pid) for role, pid in pids.items()}
            cpu0, wall0 = time.process_time(), time.perf_counter()
            barrier.wait(BARRIER_TIMEOUT_S)          # go
            barrier.wait(BARRIER_TIMEOUT_S)          # done
            rep.wall_s = time.perf_counter() - wall0
            role_cpu = {"client": time.process_time() - cpu0}
            for role, pid in pids.items():
                role_cpu[role] = _role_cpu_s(pid) - role0[role]
            wal_bytes = _tree_bytes(wal_dir) - wal0
            rep.peak_rss_mb = sum(_role_peak_rss_mb(pid)
                                  for pid in pids.values())
        except threading.BrokenBarrierError:
            rep.problems.append("live_mixed: a client never reached the "
                                "barrier")
            role_cpu, wal_bytes = {}, 0
        for thread in threads:
            thread.join(BARRIER_TIMEOUT_S)
        if traced and all(c.snapshot for c in clients):
            snapshots = obs.collect_snapshots(cluster.endpoints)
            snapshots += [c.snapshot for c in clients]
            rep.problems += [f"live_mixed: trace {problem}" for problem
                             in obs.cross_process_problems(snapshots)]
            rep.layer.update(_phase_metrics(snapshots))
    finally:
        barrier.abort()
        for thread in threads:
            thread.join(BARRIER_TIMEOUT_S)
        exit_codes = cluster.stop()
        shutil.rmtree(wal_dir, ignore_errors=True)
        if not os.listdir(workdir):
            os.rmdir(workdir)
    for role in ProcessCluster.ROLE_ORDER:
        if exit_codes.get(role) != 0:
            rep.problems.append(
                f"live_mixed: role {role} exited {exit_codes.get(role)}")

    for client in clients:
        rep.attempted += client.attempted
        rep.failed += client.failed
        rep.problems += [f"live_mixed: {p}" for p in client.problems]
    latencies = sorted(lat for c in clients for _op, lat in c.samples)
    done = rep.done
    if not latencies or not rep.wall_s:
        rep.problems.append("live_mixed: no operation completed")
        return rep
    rep.cpu_s = sum(role_cpu.values())
    rep.svc_kops = done / rep.wall_s / 1e3
    rep.svc_p50_us = percentile(latencies, 50) * 1e6
    rep.svc_p99_us = percentile(latencies, 99) * 1e6
    rep.notes.append(
        f"live_mixed: p99.9 = {percentile(latencies, 99.9) * 1e3:.3f} ms "
        f"over {len(latencies)} samples (printed, not gated)")
    for role, seconds in role_cpu.items():
        rep.layer[f"live.{role}.cpu_us_per_op"] = seconds / done * 1e6
    rep.layer["live.wal_bytes_per_op"] = wal_bytes / done
    for op in OP_TYPES:
        series = [lat for c in clients for name, lat in c.samples
                  if name == op]
        if series:
            rep.layer[f"live.{op}.p50_ms"] = 1e3 * statistics.median(series)
    rep.layer["live.dirstat.drift_ratio"] = _quarter_drift(clients, "dirstat")
    return rep
