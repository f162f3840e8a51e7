"""``mantle-exp live`` — drive a real asyncio Mantle cluster.

Three subtargets:

* ``live smoke`` — start a cluster (three OS processes via ``mantle-serve``
  by default, or in-process with ``--in-process``), push N operations
  through :class:`~repro.runtime.client.LiveClient`, and fail unless every
  op succeeds and every role exits cleanly.  ``--trace``/``--telemetry``
  turn on the wall-clock instrumentation and additionally fail the run
  unless the merged cross-process trace and every metrics snapshot
  validate — the CI ``live-obs`` job.

* ``live trace`` — run a small traced workload, collect every process's
  span buffer (client included), check the cross-process links stitch
  into connected per-op trees, and write one merged Chrome-trace /
  Perfetto JSON file with a pid track per process.

* ``live fig12`` — the sim-vs-live companion to Figure 12's read path: the
  same namespace is built and the same read mix is run through the
  simulated deployment and a live cluster, and per-op latency is printed
  side by side.  RPC rounds per op must agree exactly (same protocol, same
  code); latency legitimately differs — and with both sides traced, the
  differential table says *where*: per-phase (wire / fsync / cpu / queue)
  microseconds aligned sim vs live, with divergences beyond a threshold
  flagged.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Any, Dict, List, Tuple

from repro.bench.report import Table, print_tables
from repro.core.api import MantleClient
from repro.core.config import MantleConfig
from repro.errors import MetadataError
from repro.experiments.exportutil import (
    default_out,
    ensure_valid,
    write_json_payload,
)
from repro.ops import DirStat, ObjStat, ReadDir

#: fig12-companion namespace shape (quick scale).
LIVE_DIRS = 8
LIVE_OBJS_PER_DIR = 4

#: A sim-vs-live phase divergence is only flagged when at least one side
#: spends this much per op — below it, wall-clock noise dominates.
DIVERGENCE_FLOOR_US = 25.0


# -- cluster plumbing --------------------------------------------------------

def _start_cluster(in_process: bool, wal_dir=None, instrument: bool = False,
                   metrics: bool = False):
    """Start and return the chosen cluster flavour.

    ``instrument`` turns on tracing+telemetry on every role (via the
    config for in-process roles, via ``mantle-serve --trace --telemetry``
    for spawned ones); ``metrics`` gives each role an ephemeral metrics
    HTTP port.
    """
    if in_process:
        from repro.runtime.live import InProcessCluster

        config = MantleConfig.small()
        if instrument:
            config = config.copy(tracing=True, telemetry=True)
        cluster = InProcessCluster(config=config, wal_dir=wal_dir,
                                   metrics=metrics)
    else:
        from repro.runtime.live import ProcessCluster

        cluster = ProcessCluster(wal_dir=wal_dir, trace=instrument,
                                 telemetry=instrument, metrics=metrics)
    cluster.start()
    return cluster


def _stop_cluster(cluster) -> Dict[str, int]:
    """Stop either cluster flavour; returns role exit codes (process mode)."""
    return cluster.stop() or {}


def _role_trace_snapshots(cluster) -> List[dict]:
    """One trace snapshot per role, however the cluster is hosted."""
    from repro.runtime import obs
    from repro.runtime.live import InProcessCluster

    if isinstance(cluster, InProcessCluster):
        return cluster.trace_snapshots()
    return obs.collect_snapshots(cluster.endpoints)


def _role_metrics_snapshots(cluster) -> List[dict]:
    from repro.runtime import obs
    from repro.runtime.live import InProcessCluster

    if isinstance(cluster, InProcessCluster):
        return cluster.metrics_snapshots()
    return obs.collect_snapshots(cluster.endpoints,
                                 method="obs.metrics_snapshot")


def _reset_role_tracers(cluster) -> None:
    """Drop every role's collected spans (fig12: exclude namespace build)."""
    from repro.runtime import obs
    from repro.runtime.live import InProcessCluster

    if isinstance(cluster, InProcessCluster):
        for runtime in cluster.runtimes.values():
            runtime.tracer.reset()
    else:
        obs.collect_snapshots(cluster.endpoints, method="obs.reset")


def _trace_problems(snapshots: List[dict]) -> List[str]:
    """Every validator the merged cross-process trace must pass."""
    from repro.runtime import obs
    from repro.sim.trace import validate_chrome_trace

    problems: List[str] = []
    for snap in snapshots:
        for problem in obs.validate_trace_snapshot(snap):
            problems.append(f"{snap.get('process', '?')}: {problem}")
    problems.extend(obs.cross_process_problems(snapshots))
    problems.extend(obs.dyn_self_time_problems(snapshots))
    problems.extend(validate_chrome_trace(obs.merge_chrome_trace(snapshots)))
    return problems


def _fetch_metrics_http(port: int) -> Any:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/",
                                timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


# -- live smoke --------------------------------------------------------------

def run_live_smoke(args) -> int:
    from repro.runtime.client import LiveClient
    from repro.sim.trace import Tracer

    total_ops = args.ops
    want_digests = getattr(args, "digests", False)
    instrument = args.trace or args.telemetry or want_digests
    started = time.time()
    cluster = _start_cluster(args.in_process, wal_dir=args.wal_dir,
                             instrument=instrument, metrics=args.metrics)
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
            snapshots = _role_trace_snapshots(cluster)
            snapshots.append(client.trace_snapshot())
            obs_problems.extend(_trace_problems(snapshots))
            spans = sum(len(s.get("spans", ())) for s in snapshots)
            print(f"live-smoke: merged trace OK "
                  f"({spans} spans over {len(snapshots)} processes)"
                  if not obs_problems else
                  f"live-smoke: trace INVALID ({len(obs_problems)} problems)")
        if args.telemetry or args.metrics or want_digests:
            from repro.runtime import obs as obs_module

            if args.metrics:
                payloads = [_fetch_metrics_http(port)
                            for port in sorted(cluster.metrics_ports.values())]
                source = "metrics endpoint"
            else:
                payloads = _role_metrics_snapshots(cluster)
                source = "obs.metrics_snapshot"
            for payload in payloads:
                for problem in obs_module.validate_metrics_snapshot(payload):
                    obs_problems.append(
                        f"{source} ({payload.get('process', '?')}): "
                        f"{problem}")
            print(f"live-smoke: {len(payloads)} {source} snapshots "
                  "schema-checked")
            if want_digests:
                merged = obs_module.merged_digests(payloads)
                recorded = sum(d.total_count for d in merged.values())
                if not merged:
                    obs_problems.append(
                        "no latency digests in any metrics snapshot "
                        "(--digests)")
                elif recorded <= 0:
                    obs_problems.append(
                        "merged latency digests recorded zero completions "
                        "(--digests)")
                else:
                    print(f"live-smoke: merged {len(merged)} cluster-wide "
                          f"digests covering {recorded} completions")
    finally:
        codes = _stop_cluster(cluster)
    elapsed = time.time() - started

    for path, message in errors[:10]:
        print(f"live-smoke: ERROR at {path}: {message}")
    for problem in obs_problems[:10]:
        print(f"live-smoke: OBS PROBLEM: {problem}")
    dirty = {role: code for role, code in codes.items() if code != 0}
    rate = completed / elapsed if elapsed > 0 else 0.0
    print(f"live-smoke: {completed} ops in {elapsed:.1f}s "
          f"({rate:,.0f} ops/s), {len(errors)} errors, "
          f"shutdown codes {codes or '{in-process}'}")
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


# -- live trace --------------------------------------------------------------

def run_live_trace(args) -> int:
    """Traced workload -> one merged, validated Chrome-trace export."""
    from repro.runtime import obs
    from repro.runtime.client import LiveClient
    from repro.sim.trace import Tracer

    cluster = _start_cluster(not args.processes, wal_dir=args.wal_dir,
                             instrument=True)
    try:
        client = LiveClient(cluster.proxy_endpoint, tracer=Tracer())
        with client:
            paths = _build_namespace(client)
            _drive(client, _read_mix(paths, args.ops))
        snapshots = _role_trace_snapshots(cluster)
        snapshots.append(client.trace_snapshot())
    finally:
        _stop_cluster(cluster)

    ensure_valid(_trace_problems(snapshots), "merged cross-process trace")
    merged = obs.merge_chrome_trace(snapshots)

    stats = obs.op_tree_stats(snapshots)
    spanning = [tree for tree in stats["trees"]
                if len(tree["processes"]) >= 3]
    print(f"live-trace: {stats['ops']} op trees across "
          f"{len(snapshots)} processes; {len(spanning)} span >=3 processes "
          "(client -> proxy -> backend)")
    if not spanning:
        print("live-trace: FAIL — no op tree crosses client+proxy+backend; "
              "trace-context propagation is broken")
        return 1
    out_path = args.out or default_out("live", "trace", ".trace.json")
    write_json_payload(out_path, merged)
    print(f"live-trace: {len(merged['traceEvents'])} events -> {out_path}")
    print("live-trace: open at https://ui.perfetto.dev or chrome://tracing")
    return 0


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
    cluster = _start_cluster(not args.processes, wal_dir=args.wal_dir,
                             instrument=True)
    try:
        live_client = LiveClient(cluster.proxy_endpoint, tracer=Tracer())
        with live_client:
            live_paths = _build_namespace(live_client)
            assert live_paths == paths
            _reset_role_tracers(cluster)
            live_client.tracer.reset()
            _drive(live_client, _read_mix(live_paths, args.ops))
            live_metrics = live_client.metrics
        snapshots = _role_trace_snapshots(cluster)
        snapshots.append(live_client.trace_snapshot())
    finally:
        _stop_cluster(cluster)
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
        help="run a real asyncio cluster: smoke test, traced run, or "
             "sim-vs-live tables")
    live_sub = live_parser.add_subparsers(dest="live_command", required=True)

    smoke = live_sub.add_parser(
        "smoke", help="N ops through a live cluster; fail on any error")
    smoke.add_argument("--ops", type=int, default=1000,
                       help="operation count (default 1000)")
    smoke.add_argument("--in-process", action="store_true",
                       help="run the roles on a thread instead of "
                            "spawning mantle-serve processes")
    smoke.add_argument("--wal-dir", default=None,
                       help="directory for write-ahead files")
    smoke.add_argument("--trace", action="store_true",
                       help="trace every process and fail unless the "
                            "merged cross-process trace validates")
    smoke.add_argument("--telemetry", action="store_true",
                       help="enable telemetry and schema-check every "
                            "role's metrics snapshot")
    smoke.add_argument("--metrics", action="store_true",
                       help="serve per-role metrics HTTP endpoints and "
                            "schema-check what they return")
    smoke.add_argument("--digests", action="store_true",
                       help="additionally merge every role's windowed "
                            "latency digests cluster-wide and fail if "
                            "none recorded any completions")

    trace = live_sub.add_parser(
        "trace", help="traced run -> one merged Chrome-trace JSON export")
    trace.add_argument("--ops", type=int, default=80,
                       help="read ops after the namespace build "
                            "(default 80)")
    trace.add_argument("--processes", action="store_true",
                       help="use real OS processes for the cluster")
    trace.add_argument("--wal-dir", default=None,
                       help="directory for write-ahead files")
    trace.add_argument("--out", default=None,
                       help="output path (default live_trace.trace.json)")

    fig12 = live_sub.add_parser(
        "fig12", help="print sim-vs-live read-path latency and the "
                      "per-phase differential side by side")
    fig12.add_argument("--ops", type=int, default=200,
                       help="read ops per side (default 200)")
    fig12.add_argument("--processes", action="store_true",
                       help="use real OS processes for the live side")
    fig12.add_argument("--wal-dir", default=None,
                       help="directory for write-ahead files")
    fig12.add_argument("--divergence", type=float, default=10.0,
                       help="flag phases whose sim/live ratio exceeds "
                            "this factor either way (default 10)")


def cmd_live(args) -> int:
    if args.live_command == "smoke":
        return run_live_smoke(args)
    if args.live_command == "trace":
        return run_live_trace(args)
    return run_live_fig12(args)
