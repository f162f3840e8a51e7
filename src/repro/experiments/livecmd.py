"""``mantle-exp live`` — drive a real asyncio Mantle cluster.

Both subtargets run three ``mantle-serve`` OS processes by default, or
every role on one thread with ``--in-process``:

* ``live smoke`` — push N operations through
  :class:`~repro.runtime.client.LiveClient` and fail unless every op
  succeeds and every role shuts down cleanly.  ``--trace`` traces every
  process, fails unless the merged cross-process trace validates and some
  op tree spans client -> proxy -> backend, and writes it as one
  Chrome-trace / Perfetto file (``trace_live.json`` under ``--out``).
  ``--telemetry`` schema-checks every role's metrics snapshot and fails
  unless the roles' windowed latency digests merge cluster-wide;
  ``--metrics`` reads those snapshots from per-role HTTP endpoints.

* ``live fig12`` — the sim-vs-live companion to Figure 12's read path: the
  same namespace is built and the same read mix is run through the
  simulated deployment and a live cluster, and per-op latency is printed
  side by side.  RPC rounds per op must agree exactly (same protocol, same
  code); latency legitimately differs — and with both sides traced, the
  differential table says *where*: per-phase (wire / fsync / cpu / queue)
  microseconds aligned sim vs live, with divergences beyond a threshold
  flagged.

Snapshots, metrics and resets go over every role's ``obs.*`` RPCs
(:func:`repro.runtime.obs.collect_snapshots`), whichever flavour runs.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import List, Tuple

from repro.bench.report import Table, print_tables
from repro.core.api import MantleClient
from repro.core.config import MantleConfig
from repro.errors import MetadataError
from repro.experiments.exportutil import ensure_valid, write_export
from repro.ops import DirStat, ObjStat, ReadDir

#: fig12-companion namespace shape (quick scale).
LIVE_DIRS = 8
LIVE_OBJS_PER_DIR = 4

#: A sim-vs-live phase divergence is only flagged when at least one side
#: spends this much per op — below it, wall-clock noise dominates.
DIVERGENCE_FLOOR_US = 25.0


# -- cluster plumbing --------------------------------------------------------

def _start_cluster(args, trace: bool = False, telemetry: bool = False):
    """Start the flavour ``--in-process`` picks; both take the same
    arguments."""
    from repro.runtime.live import InProcessCluster, ProcessCluster

    flavour = InProcessCluster if args.in_process else ProcessCluster
    cluster = flavour(wal_dir=args.wal_dir, trace=trace, telemetry=telemetry,
                      metrics=getattr(args, "metrics", False))
    cluster.start()
    return cluster


def _check_trace(cluster, client, out_dir: str) -> List[str]:
    """Merge every process's spans (the client's included) and validate
    them; require an op tree spanning client -> proxy -> backend; write
    the merged trace under ``out_dir`` when all of it holds."""
    from repro.runtime import obs
    from repro.sim.trace import validate_chrome_trace

    snapshots = obs.collect_snapshots(cluster.endpoints)
    snapshots.append(client.trace_snapshot())
    merged = obs.merge_chrome_trace(snapshots)
    problems = [f"{snap.get('process', '?')}: {problem}"
                for snap in snapshots
                for problem in obs.validate_trace_snapshot(snap)]
    problems += obs.cross_process_problems(snapshots)
    problems += obs.dyn_self_time_problems(snapshots)
    problems += validate_chrome_trace(merged)
    stats = obs.op_tree_stats(snapshots)
    spanning = sum(len(tree["processes"]) >= 3 for tree in stats["trees"])
    print(f"live-smoke: {stats['ops']} op trees over {len(snapshots)} "
          f"processes, {spanning} spanning >= 3 (client -> proxy -> backend)")
    if not spanning:
        problems.append("no op tree crosses client+proxy+backend: "
                        "trace-context propagation is broken")
    if problems:
        print(f"live-smoke: trace INVALID ({len(problems)} problems)")
        return problems
    path = write_export(out_dir, "trace", "live", None, ".json", merged,
                        validate_chrome_trace)
    print(f"live-smoke: merged trace OK, {len(merged['traceEvents'])} "
          f"events -> {path} (open at https://ui.perfetto.dev)")
    return []


def _check_metrics(cluster, args) -> List[str]:
    """Schema-check every role's metrics snapshot; with ``--telemetry``
    also merge the roles' latency digests cluster-wide."""
    from repro.runtime import obs

    if args.metrics:
        payloads = []
        for port in sorted(cluster.metrics_ports.values()):
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/",
                                        timeout=10) as response:
                payloads.append(json.loads(response.read()))
        source = "metrics endpoint"
    else:
        payloads = obs.collect_snapshots(cluster.endpoints,
                                         method="obs.metrics_snapshot")
        source = "obs.metrics_snapshot"
    problems = [f"{source} ({payload.get('process', '?')}): {problem}"
                for payload in payloads
                for problem in obs.validate_metrics_snapshot(payload)]
    print(f"live-smoke: {len(payloads)} {source} snapshots schema-checked")
    if args.telemetry:
        merged = obs.merged_digests(payloads)
        recorded = sum(d.total_count for d in merged.values())
        print(f"live-smoke: merged {len(merged)} cluster-wide digests "
              f"covering {recorded} completions")
        if recorded <= 0:
            problems.append("the roles' latency digests merge to no "
                            "completions")
    return problems


# -- live smoke --------------------------------------------------------------

def run_live_smoke(args) -> int:
    from repro.runtime.client import LiveClient
    from repro.sim.trace import Tracer

    total_ops = args.ops
    started = time.time()
    cluster = _start_cluster(args, trace=args.trace, telemetry=args.telemetry)
    flavour = "in-process" if args.in_process else "3 OS processes"
    print(f"live-smoke: cluster up ({flavour}), "
          f"proxy at {cluster.proxy_endpoint}")

    errors: List[Tuple[str, str]] = []
    obs_problems: List[str] = []
    completed = 0
    try:
        tracer = Tracer() if args.trace else None
        with LiveClient(cluster.proxy_endpoint, tracer=tracer) as client:
            dirs = max(1, min(16, total_ops // 8))
            for d in range(dirs):
                client.mkdir(f"/smoke-{d}")
                completed += 1
            index = 0
            while completed < total_ops:
                d = index % dirs
                obj = f"/smoke-{d}/obj-{index}"
                # One op per iteration, cycling create -> stat -> list ->
                # delete so the namespace stays bounded and every op is
                # expected to succeed.
                stage = completed % 4
                try:
                    if stage == 0:
                        client.create(obj)
                        last_obj = obj
                        index += 1
                    elif stage == 1:
                        client.objstat(last_obj)
                    elif stage == 2:
                        client.listdir(f"/smoke-{d}")
                    else:
                        client.delete(last_obj)
                except MetadataError as exc:
                    errors.append((obj, f"{type(exc).__name__}: {exc}"))
                completed += 1
            metrics = client.metrics
        # Observability checks while the cluster is still serving.
        if args.trace:
            obs_problems += _check_trace(cluster, client, args.out)
        if args.telemetry or args.metrics:
            obs_problems += _check_metrics(cluster, args)
    finally:
        codes = cluster.stop()
    elapsed = time.time() - started

    for path, message in errors[:10]:
        print(f"live-smoke: ERROR at {path}: {message}")
    for problem in obs_problems[:10]:
        print(f"live-smoke: OBS PROBLEM: {problem}")
    dirty = {role: code for role, code in codes.items() if code != 0}
    rate = completed / elapsed if elapsed > 0 else 0.0
    print(f"live-smoke: {completed} ops in {elapsed:.1f}s "
          f"({rate:,.0f} ops/s), {len(errors)} errors, "
          f"shutdown codes {codes}")
    if metrics.latency:
        overall = sorted(s for rec in metrics.latency.values()
                         for s in rec.samples)
        mid = overall[len(overall) // 2] / 1000.0
        print(f"live-smoke: median op latency {mid:.2f} ms")
    if errors or dirty or obs_problems:
        print("live-smoke: FAIL")
        return 1
    print("live-smoke: OK")
    return 0


# -- shared workload ---------------------------------------------------------

def _build_namespace(client) -> List[str]:
    paths = []
    for d in range(LIVE_DIRS):
        client.mkdir(f"/bench-{d}")
        for o in range(LIVE_OBJS_PER_DIR):
            path = f"/bench-{d}/obj-{o}"
            client.create(path)
            paths.append(path)
    return paths


def _read_mix(paths: List[str], ops: int) -> List:
    mix = []
    for i in range(ops):
        path = paths[i % len(paths)]
        kind = i % 4
        if kind < 2:
            mix.append(ObjStat(path))
        elif kind == 2:
            mix.append(DirStat(path.rsplit("/", 1)[0]))
        else:
            mix.append(ReadDir(path.rsplit("/", 1)[0]))
    return mix


def _drive(client, ops) -> None:
    for op in ops:
        client.perform(op)


# -- live fig12 companion ----------------------------------------------------

def run_live_fig12(args) -> int:
    from repro.runtime import obs
    from repro.runtime.client import LiveClient
    from repro.sim.trace import Tracer

    # Simulated side, traced: the tracer is reset after the namespace
    # build so the phase breakdown covers exactly the measured read mix.
    sim_client = MantleClient(MantleConfig.small(tracing=True))
    paths = _build_namespace(sim_client)
    sim_tracer = sim_client.system.sim.tracer
    sim_tracer.reset()
    _drive(sim_client, _read_mix(paths, args.ops))
    sim_metrics = sim_client.metrics
    sim_snapshot = obs.snapshot_from_tracer(
        "sim", sim_tracer, now_us=sim_client.system.sim.now)
    sim_client.close()
    sim_phases = obs.phase_breakdown([sim_snapshot])

    # Live side, identically traced and identically reset.
    cluster = _start_cluster(args, trace=True)
    try:
        live_client = LiveClient(cluster.proxy_endpoint, tracer=Tracer())
        with live_client:
            live_paths = _build_namespace(live_client)
            assert live_paths == paths
            obs.collect_snapshots(cluster.endpoints, method="obs.reset")
            live_client.tracer.reset()
            _drive(live_client, _read_mix(live_paths, args.ops))
            live_metrics = live_client.metrics
        snapshots = obs.collect_snapshots(cluster.endpoints)
        snapshots.append(live_client.trace_snapshot())
    finally:
        cluster.stop()
    ensure_valid(obs.cross_process_problems(snapshots),
                 "live cross-process span links")
    live_phases = obs.phase_breakdown(snapshots)

    table = Table(
        title="fig12 companion: read-path latency, simulated vs live (us)",
        headers=("op", "n",
                 "sim mean", "sim p50", "sim p99", "sim rpcs",
                 "live mean", "live p50", "live p99", "live rpcs"))
    for op_name in sorted(sim_metrics.latency):
        sim_lat = sim_metrics.latency[op_name]
        live_lat = live_metrics.latency[op_name]
        sim_rpcs = sim_metrics.rpc_rounds[op_name].mean
        live_rpcs = live_metrics.rpc_rounds[op_name].mean
        table.add_row(
            op_name, sim_lat.count,
            f"{sim_lat.mean:.0f}", f"{sim_lat.p50:.0f}",
            f"{sim_lat.p99:.0f}", f"{sim_rpcs:.2f}",
            f"{live_lat.mean:.0f}", f"{live_lat.p50:.0f}",
            f"{live_lat.p99:.0f}", f"{live_rpcs:.2f}")
        if abs(sim_rpcs - live_rpcs) > 1e-9:
            table.add_note(
                f"RPC-round MISMATCH for {op_name}: sim {sim_rpcs:.2f} "
                f"vs live {live_rpcs:.2f} — protocol divergence!")
    table.add_note(
        "Same namespace, same op sequence, same proxy/TafDB/IndexNode "
        "code; only the runtime differs (DES cost model vs asyncio on "
        "localhost TCP).")
    table.add_note(
        "RPC rounds per op must match exactly; latency is expected to "
        "differ (that contrast is the experiment).")

    diff = Table(
        title="fig12 differential: mean per-phase us per op, sim vs live",
        headers=("op", "side", "mean", "wire", "fsync", "cpu", "queue",
                 "other"))
    flagged: List[str] = []
    for op_name in sorted(sim_phases):
        sim_p = sim_phases[op_name]
        live_p = live_phases.get(op_name)
        diff.add_row(op_name, "sim", f"{sim_p.mean_latency_us:.0f}",
                     *(f"{sim_p.mean_phase_us(k):.0f}"
                       for k in obs.PHASE_KINDS),
                     f"{sim_p.mean_other_us:.0f}")
        if live_p is None:
            diff.add_note(f"{op_name}: no live op roots traced")
            continue
        diff.add_row("", "live", f"{live_p.mean_latency_us:.0f}",
                     *(f"{live_p.mean_phase_us(k):.0f}"
                       for k in obs.PHASE_KINDS),
                     f"{live_p.mean_other_us:.0f}")
        for kind in obs.PHASE_KINDS:
            sim_us = sim_p.mean_phase_us(kind)
            live_us = live_p.mean_phase_us(kind)
            if max(sim_us, live_us) < DIVERGENCE_FLOOR_US:
                continue
            ratio = live_us / sim_us if sim_us > 1e-9 else float("inf")
            if ratio > args.divergence or ratio < 1.0 / args.divergence:
                flagged.append(
                    f"{op_name}/{kind}: sim {sim_us:.0f}us vs live "
                    f"{live_us:.0f}us ({ratio:.1f}x)")
    for flag in flagged:
        diff.add_note("DIVERGENCE " + flag)
    diff.add_note(
        "Phases come from the same span charges on both sides (the live "
        "tree stitched across processes via trace context); 'other' is "
        "latency no charge explains — modelled queueing in the sim, event-"
        "loop scheduling live.")
    diff.add_note(
        f"Divergence flagged when sim and live differ by more than "
        f"{args.divergence:.0f}x and either side exceeds "
        f"{DIVERGENCE_FLOOR_US:.0f}us/op.")
    print_tables([table, diff], header="### live fig12 companion")
    return 0


def add_live_parser(sub) -> None:
    """Register the ``live`` subcommand on the mantle-exp parser."""
    live_parser = sub.add_parser(
        "live",
        help="run a real asyncio cluster: smoke test (optionally traced) "
             "or sim-vs-live tables")
    live_sub = live_parser.add_subparsers(dest="live_command", required=True)

    smoke = live_sub.add_parser(
        "smoke", help="N ops through a live cluster; fail on any error")
    fig12 = live_sub.add_parser(
        "fig12", help="print sim-vs-live read-path latency and the "
                      "per-phase differential side by side")
    smoke.add_argument("--ops", type=int, default=1000,
                       help="operation count (default 1000)")
    fig12.add_argument("--ops", type=int, default=200,
                       help="read ops per side (default 200)")
    for parser in (smoke, fig12):
        parser.add_argument("--in-process", action="store_true",
                            help="run the roles on a thread instead of "
                                 "spawning mantle-serve processes")
        parser.add_argument("--wal-dir", default=None,
                            help="directory for write-ahead files")
    smoke.add_argument("--trace", action="store_true",
                       help="trace every process, fail unless the merged "
                            "cross-process trace validates and links "
                            "client -> proxy -> backend, and write it as "
                            "trace_live.json")
    smoke.add_argument("--telemetry", action="store_true",
                       help="enable telemetry; fail unless every role's "
                            "metrics snapshot validates and their latency "
                            "digests merge cluster-wide")
    smoke.add_argument("--metrics", action="store_true",
                       help="serve per-role metrics HTTP endpoints and "
                            "schema-check what they return")
    smoke.add_argument("--out", metavar="DIR", default="",
                       help="directory for the --trace export "
                            "(default: the working directory)")
    fig12.add_argument("--divergence", type=float, default=10.0,
                       help="flag phases whose sim/live ratio exceeds "
                            "this factor either way (default 10)")


def cmd_live(args) -> int:
    if args.live_command == "smoke":
        return run_live_smoke(args)
    return run_live_fig12(args)
