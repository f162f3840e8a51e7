"""``mantle-serve``: run one Mantle role as a real OS process.

Each invocation hosts one service over the live wire protocol::

    mantle-serve tafdb     --port 7401
    mantle-serve indexnode --port 7402
    mantle-serve proxy     --port 7400 \\
        --tafdb 127.0.0.1:7401 --indexnode 127.0.0.1:7402

``--listen-fd N`` serves an inherited socket that is already listening
instead of binding ``--host``/``--port``: that is how
:class:`~repro.runtime.live.ProcessCluster` starts its roles, all at once,
with every endpoint known before any of them runs.  Once the listener is
bound the process prints ``MANTLE-SERVE READY port=<port>`` on stdout (the
handshake the cluster waits for; with ``--metrics-port`` the line also
carries ``metrics=<port>``) and serves until SIGTERM/SIGINT, which it
traps for a clean exit 0.  ``--trace``/``--telemetry`` turn on the wall-clock
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
import socket
import sys
from typing import Optional

from repro.core.config import MantleConfig
from repro.runtime.live import ROLE_ORDER, LiveRole, ProcessCluster


#: ``--config`` presets.
CONFIGS = {"small": MantleConfig.small, "base": MantleConfig.base,
           "paper": MantleConfig}


async def _serve_role(args) -> int:
    config = CONFIGS[args.config]()
    config.validate()
    sock = None if args.listen_fd is None else socket.socket(
        fileno=args.listen_fd)
    role = LiveRole(args.role, config, trace=args.trace,
                    telemetry=args.telemetry, wal_dir=args.wal_dir,
                    host=args.host, port=args.port,
                    metrics_port=args.metrics_port,
                    tafdb=getattr(args, "tafdb", ""),
                    indexnode=getattr(args, "indexnode", ""), sock=sock)
    await role.start()
    # Trap the stop signals before announcing READY: a cluster may stop a
    # role the moment its READY line arrives.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    ready = f"MANTLE-SERVE READY port={role.port}"
    if role.metrics_port is not None:
        ready += f" metrics={role.metrics_port}"
    print(ready, flush=True)
    await stop.wait()
    await role.stop()
    return 0


def _run_cluster(args) -> int:
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
        p.add_argument("--config", default="small", choices=CONFIGS,
                       help="config preset (default small)")
        p.add_argument("--wal-dir", default=None,
                       help="directory for write-ahead files (omit: no wal)")
        p.add_argument("--trace", action="store_true",
                       help="enable wall-clock span tracing")
        p.add_argument("--telemetry", action="store_true",
                       help="enable windowed wall-clock telemetry")

    for role in ROLE_ORDER:
        p = sub.add_parser(role, help=f"serve the {role} role")
        common(p)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral)")
        p.add_argument("--listen-fd", type=int, default=None,
                       help="serve this inherited, already listening "
                            "socket instead of binding --host/--port "
                            "(how mantle-serve cluster starts its roles)")
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
    if args.role == "proxy" and not (args.tafdb and args.indexnode):
        parser.error("proxy role needs --tafdb and --indexnode")
    return asyncio.run(_serve_role(args))


if __name__ == "__main__":
    sys.exit(main())
