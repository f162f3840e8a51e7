"""``mantle-serve``: run one Mantle role as a real OS process.

Each invocation hosts one service over the live wire protocol::

    mantle-serve tafdb     --port 7401
    mantle-serve indexnode --port 7402
    mantle-serve proxy     --port 7400 \\
        --tafdb 127.0.0.1:7401 --indexnode 127.0.0.1:7402

Once the listener is bound the process prints ``MANTLE-SERVE READY
port=<port>`` on stdout (the handshake :class:`~repro.runtime.live
.ProcessCluster` waits for; with ``--metrics-port`` the line also carries
``metrics=<port>``) and serves until SIGTERM/SIGINT, which it traps for a
clean exit 0.  ``--trace``/``--telemetry`` turn on the wall-clock
instrumentation; every role then answers ``obs.trace_snapshot`` /
``obs.metrics_snapshot`` control RPCs on its wire port.

``mantle-serve cluster`` is the quickstart: it spawns all three roles as
child processes, prints the proxy endpoint, and tears the cluster down on
Ctrl-C.  See ``docs/runtime.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional

from repro.core.config import MantleConfig
from repro.runtime.aio import AsyncioRuntime, WireServer

#: How often the live IndexNode drains its RemovalList (the §5.1.2
#: invalidator the simulator runs as a background process).
PURGE_PERIOD_S = 0.05


def _load_config(name: str) -> MantleConfig:
    factories = {"small": MantleConfig.small, "base": MantleConfig.base,
                 "paper": MantleConfig.paper_scale, "default": MantleConfig}
    factory = factories.get(name)
    if factory is None:
        raise SystemExit(f"unknown --config {name!r} "
                         f"(choose from {sorted(factories)})")
    config = factory()
    config.validate()
    return config


async def _purge_loop(service) -> None:
    """Live counterpart of ``IndexNodeService._purge_loop``."""
    while True:
        await asyncio.sleep(PURGE_PERIOD_S)
        service.state.invalidator.purge_pending()


async def _serve_role(args) -> int:
    from repro.runtime import live

    config = _load_config(args.config)
    tracer, telemetry = live.build_observability(
        config, args.role, force_trace=args.trace,
        force_telemetry=args.telemetry)
    runtime = AsyncioRuntime(tracer=tracer, telemetry=telemetry,
                             process_name=args.role)
    background = None
    if args.role == "tafdb":
        dispatcher = live.build_tafdb_role(config, runtime,
                                           wal_dir=args.wal_dir)
        background = live.start_compactor(dispatcher, config)
    elif args.role == "indexnode":
        dispatcher = live.build_indexnode_role(config, runtime,
                                               wal_dir=args.wal_dir)
        background = asyncio.ensure_future(_purge_loop(dispatcher))
    else:  # proxy
        if not args.tafdb or not args.indexnode:
            raise SystemExit("proxy role needs --tafdb and --indexnode")
        dispatcher = live.build_proxy_role(
            config, runtime, args.tafdb.split(","), args.indexnode,
            wal_dir=args.wal_dir)

    server = WireServer(runtime, dispatcher, host=args.host, port=args.port)
    port = await server.start()
    metrics_server = None
    ready = f"MANTLE-SERVE READY port={port}"
    if args.metrics_port is not None:
        from repro.runtime.obs import MetricsServer

        metrics_server = MetricsServer(runtime, host=args.host,
                                       port=args.metrics_port)
        metrics_port = await metrics_server.start()
        ready += f" metrics={metrics_port}"
    print(ready, flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()

    if background is not None:
        background.cancel()
    if metrics_server is not None:
        await metrics_server.stop()
    await server.stop()
    if args.role == "proxy":
        dispatcher.service.shutdown()
    return 0


def _run_cluster(args) -> int:
    from repro.runtime.live import ProcessCluster

    cluster = ProcessCluster(config_name=args.config, wal_dir=args.wal_dir,
                             trace=args.trace, telemetry=args.telemetry,
                             metrics=args.metrics)
    endpoint = cluster.start()
    print(f"MANTLE-CLUSTER READY proxy={endpoint}", flush=True)
    if cluster.metrics_ports:
        print(f"metrics ports: {cluster.metrics_ports}", flush=True)
    print("press Ctrl-C to stop", flush=True)
    try:
        signal.pause()
    except (KeyboardInterrupt, AttributeError):
        # AttributeError: signal.pause is POSIX-only; fall back to a wait.
        try:
            while True:
                import time
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
    finally:
        codes = cluster.stop()
        print(f"cluster stopped: {codes}", flush=True)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mantle-serve",
        description="Run one Mantle role (or a whole cluster) live.")
    sub = parser.add_subparsers(dest="role", required=True)

    def common(p):
        p.add_argument("--config", default="small",
                       help="config preset: small | base | paper | default")
        p.add_argument("--wal-dir", default=None,
                       help="directory for write-ahead files (omit: no wal)")
        p.add_argument("--trace", action="store_true",
                       help="enable wall-clock span tracing "
                            "(also on when the config sets tracing=True)")
        p.add_argument("--telemetry", action="store_true",
                       help="enable windowed wall-clock telemetry")

    for role in ("tafdb", "indexnode", "proxy"):
        p = sub.add_parser(role, help=f"serve the {role} role")
        common(p)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral)")
        p.add_argument("--metrics-port", type=int, default=None,
                       help="serve a JSON metrics snapshot over HTTP on "
                            "this port (0 = ephemeral; advertised on the "
                            "READY line as metrics=<port>)")
        if role == "proxy":
            p.add_argument("--tafdb", default=None,
                           help="comma-separated TafDB endpoints")
            p.add_argument("--indexnode", default=None,
                           help="IndexNode endpoint")

    p = sub.add_parser("cluster",
                       help="spawn tafdb+indexnode+proxy as child processes")
    common(p)
    p.add_argument("--metrics", action="store_true",
                   help="give every role an ephemeral metrics HTTP port")

    args = parser.parse_args(argv)
    if args.role == "cluster":
        return _run_cluster(args)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(_serve_role(args))
    finally:
        loop.close()


if __name__ == "__main__":
    sys.exit(main())
