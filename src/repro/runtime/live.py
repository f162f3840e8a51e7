"""Live deployment assembly: the same Mantle code as real asyncio services.

The simulator runs Mantle's state machines (``ShardState``,
``IndexNodeState``) and orchestration (``MantleProxy``, ``TafDBClient``)
under a DES kernel.  This module re-hosts the *identical* classes in real
processes:

* :class:`LiveSimFacade` duck-types the handful of ``Simulator`` attributes
  domain code reads (``now``/``_now``, the runtime's wall-clock-fed
  tracer/telemetry, and the ``runtime`` the seam resolves) — so
  ``Server.dispatch``, ``TafDBClient`` and ``MetadataSystem.perform`` run
  unmodified, instrumentation included;
* :class:`LiveHost` stands in for ``sim.host.Host``: never crashed, and its
  "disk" is a real write-ahead file fsynced on a worker thread;
* :class:`SoloRaft` is the live IndexNode's single-node replicated log — a
  durable JSONL append before every apply, the degenerate (but correctly
  ordered and durable) Raft a one-replica group is;
* the three ``build_*_role`` functions assemble each role, and
  :class:`LiveRole` is the one way a role starts and stops: dispatcher,
  background loops on the runtime seam, wire and metrics listeners.
  ``mantle-serve <role>`` runs one per process; :class:`InProcessCluster`
  runs all three on one event loop (real localhost TCP) for tests, and
  :class:`ProcessCluster` spawns them as ``mantle-serve`` processes with a
  READY handshake.  Both clusters bind every role's listening socket first
  and then start the three roles together.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Dict, List, Optional

from repro.baselines.base import IdAllocator, MetadataSystem
from repro.core.config import MantleConfig
from repro.core.proxy import ProxyRouted
from repro.errors import MetadataError
from repro.ops import Op
from repro.runtime.aio import AsyncioRuntime, RemoteService, WireServer
from repro.sim.stats import OpContext
from repro.sim.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.tafdb.client import TafDBClient
from repro.tafdb.contention import ContentionRegistry
from repro.tafdb.partition import Partitioner
from repro.tafdb.rows import attr_key
from repro.types import ROOT_ID, AttrMeta, EntryKind


#: The roles of a live cluster.  They start together; they stop in
#: reverse of this order, proxy first.
ROLE_ORDER = ("tafdb", "indexnode", "proxy")

#: Where a cluster's roles listen.
CLUSTER_HOST = "127.0.0.1"

#: How long a cluster waits for its roles to come up, and to go down.
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0

#: How often a live IndexNode drains its RemovalList (§5.1.2).  The
#: simulator's invalidator period (200 us) would wake a real process 5,000
#: times a second.
LIVE_PURGE_PERIOD_US = 50_000.0


def build_observability(config: MantleConfig, trace: bool = False,
                        telemetry: bool = False):
    """Resolve (tracer, telemetry) for one live process.

    ``trace``/``telemetry`` are the one switch (``mantle-serve
    --trace/--telemetry``, the cluster classes' arguments); the config only
    supplies the telemetry window.  Disabled layers get the shared null
    singletons, preserving the zero-cost-off contract.
    """
    return (Tracer() if trace else NULL_TRACER,
            Telemetry(window_us=config.telemetry_window_us) if telemetry
            else NULL_TELEMETRY)


class LiveSimFacade:
    """The ``sim`` object live code sees: a wallclock plus this process's
    tracer/telemetry (the runtime's own), with the :class:`AsyncioRuntime`
    on the attribute the runtime seam resolves.

    The tracer's span stacks are keyed by :attr:`_active_process`: live,
    the "process" a charge belongs to is the request generator the
    runtime's trampoline is stepping, which is exactly the role
    ``sim._active_process`` plays for simulated processes.
    """

    def __init__(self, runtime: AsyncioRuntime):
        self.runtime = runtime
        self.tracer = runtime.tracer
        self.telemetry = runtime.telemetry
        if self.tracer.enabled:
            self.tracer.bind(self)

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def _now(self) -> float:
        return self.runtime.now

    @property
    def _active_process(self):
        """The tracer's span-stack key: the generator being stepped."""
        return self.runtime.active


class LiveHost:
    """A real machine's stand-in for the simulated ``Host``.

    ``do_fsync`` is what ``AsyncioRuntime.fsync`` offloads to a worker
    thread: an append plus a real ``os.fsync`` on this host's WAL file —
    the durability point the simulator charges ``db_commit_sync_us`` for.
    ``fsyncs`` is counted by the runtime on the loop side, once the
    offloaded call has returned.
    """

    def __init__(self, sim: LiveSimFacade, name: str,
                 wal_dir: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.crashed = False
        self.fsyncs = 0
        self._wal_path = None
        self._wal = None
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            self._wal_path = os.path.join(wal_dir, f"{name}.wal")
            self._wal = open(self._wal_path, "ab")

    def do_fsync(self) -> None:
        if self._wal is not None:
            self._wal.write(b"C\n")  # commit marker
            self._wal.flush()
            os.fsync(self._wal.fileno())

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


class SoloRaft:
    """Single-node durable log backing the live IndexNode.

    ``commit`` (a generator the runtime's trampoline drives) appends the
    command to a JSONL log, fsyncs it off-loop, then applies it to the state
    machine — the ordering and durability contract
    the simulated Raft group provides, minus replication (the live smoke
    cluster runs one IndexNode replica).  Always leader; ``read_barrier``
    is a no-op generator for the same reason.
    """

    is_leader = True
    leader_hint = None

    def __init__(self, host: LiveHost, state_machine,
                 log_path: Optional[str] = None):
        self.host = host
        self.state_machine = state_machine
        self.commits = 0
        self._log = open(log_path, "ab") if log_path else None
        self._lock = threading.Lock()

    def _append_durable(self, command) -> None:
        from repro.runtime import wire
        if self._log is None:
            return
        record = json.dumps(wire.to_jsonable(tuple(command)),
                            separators=(",", ":")).encode() + b"\n"
        with self._lock:
            self._log.write(record)
            self._log.flush()
            os.fsync(self._log.fileno())

    def commit(self, command):
        # Under a tracer: the same raft.flush / raft.apply spans the
        # simulated leader opens, with wall-clock durations — what lets
        # the differential report align live commits against the modelled
        # fsync/apply costs.  (The apply's CPU is part of the handler's own
        # time, which the transport charges; its span only marks where.)
        sim = self.host.sim
        tracer = sim.tracer
        host = self.host.name
        started = sim.now
        if tracer.enabled:
            span = tracer.begin("raft.flush", started, category="raft",
                                host=host)
            span.annotate(entries=1)
        yield from sim.runtime.offload(self._append_durable, command)
        self.commits += 1
        flushed = sim.now
        if sim.telemetry.enabled:
            sim.telemetry.counter("raft.flushes", host).add(flushed)
            sim.telemetry.counter("host.disk_busy_us", host,
                                  capacity=1.0).add_interval(started, flushed)
        if not tracer.enabled:
            return self.state_machine.apply(command)
        tracer.charge("fsync", flushed - started, host)
        tracer.end(span, flushed)
        span = tracer.begin("raft.apply", flushed, category="raft", host=host)
        span.annotate(entries=1)
        try:
            return self.state_machine.apply(command)
        finally:
            tracer.end(span, sim.now)

    def read_barrier(self):
        return
        yield  # pragma: no cover

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None


# -- role builders -----------------------------------------------------------
#
# Each returns ``(dispatcher, background loops, close)``: the object the
# WireServer serves, the generators :class:`LiveRole` drives on the role's
# runtime until it stops, and what releases the role's files and sockets.

def build_tafdb_role(config: MantleConfig, runtime: AsyncioRuntime,
                     wal_dir: Optional[str] = None):
    """One live TafDB server process holding every shard, compacting delta
    rows (§5.2.1) at the simulator's period.

    The live smoke cluster maps all shards onto one server; shard *count*
    (and therefore 1PC-vs-2PC routing) still matches the simulated
    configuration, which is what the agreement suite compares.
    """
    from repro.tafdb.server import DBServer

    facade = LiveSimFacade(runtime)
    host = LiveHost(facade, "tafdb-0", wal_dir=wal_dir)
    partitioner = Partitioner(config.num_db_shards, 1)
    server = DBServer(host, partitioner.shards_on_server(0), config.costs)
    # Bootstrap the namespace root exactly as StorageMixin._init_bulk
    # does for the simulated deployment.
    root_shard = partitioner.shard_of(ROOT_ID)
    server.shard(root_shard).install(
        attr_key(ROOT_ID), AttrMeta(id=ROOT_ID, kind=EntryKind.DIRECTORY))
    return server, [server.compactor_loop()], host.close


def build_indexnode_role(config: MantleConfig, runtime: AsyncioRuntime,
                         wal_dir: Optional[str] = None):
    """One live IndexNode process: real state machine over a SoloRaft log,
    its invalidator draining the RemovalList every
    :data:`LIVE_PURGE_PERIOD_US`."""
    from repro.indexnode.server import IndexNodeService
    from repro.indexnode.state import IndexNodeState

    facade = LiveSimFacade(runtime)
    host = LiveHost(facade, "indexnode-0", wal_dir=wal_dir)
    state = IndexNodeState(cache_k=config.path_cache_k,
                           cache_enabled=config.enable_path_cache,
                           root_id=ROOT_ID)
    log_path = None
    if wal_dir is not None:
        log_path = os.path.join(wal_dir, "indexnode-raft.jsonl")
    node = SoloRaft(host, state, log_path=log_path)
    service = IndexNodeService(host, node, state, config.costs,
                               purge_period_us=LIVE_PURGE_PERIOD_US,
                               start_purger=False)

    def close() -> None:
        node.close()
        host.close()

    return service, [service.purge_loop()], close


class LiveTafDB:
    """Proxy-side view of the TafDB deployment: remote stubs + the shared
    contention registry (process-local live, exactly as shared-object state
    is cluster-internal in the simulator)."""

    def __init__(self, facade: LiveSimFacade, config: MantleConfig,
                 services: List[RemoteService]):
        self._facade = facade
        self.costs = config.costs
        self.partitioner = Partitioner(config.num_db_shards, len(services))
        self.services = services
        self.contention = ContentionRegistry(
            threshold=config.delta_activation_threshold,
            enabled=config.enable_delta_records)
        self._client_ids = itertools.count(1)

    def client(self, client_id: Optional[int] = None) -> TafDBClient:
        if client_id is None:
            client_id = next(self._client_ids)
        return TafDBClient(self._facade, None, self.partitioner,
                           self.services, self.costs, client_id=client_id,
                           runtime=self._facade.runtime)


class LiveMantleService(ProxyRouted, MetadataSystem):
    """The proxy process's service object: real ``MantleProxy`` instances
    orchestrating over remote TafDB/IndexNode stubs.

    Subclasses :class:`MetadataSystem`, so ``perform(op)`` — including its
    phase stamping and typed-op dispatch — is byte-for-byte the code the
    simulator runs.
    """

    name = "mantle-live"

    def __init__(self, config: MantleConfig, runtime: AsyncioRuntime,
                 tafdb_services: List[RemoteService],
                 index_service: RemoteService,
                 wal_dir: Optional[str] = None):
        facade = LiveSimFacade(runtime)
        super().__init__(facade, None)  # resolves runtime from the facade
        self.config = config
        self.costs = config.costs
        self.namespace = "default"
        self.root_id = ROOT_ID
        self._wal_dir = wal_dir
        self._hosts: Dict[int, LiveHost] = {}
        self.tafdb = LiveTafDB(facade, config, tafdb_services)
        self._index_service = index_service
        self.ids = IdAllocator(start=ROOT_ID + 1)
        self._init_proxies(config.num_proxies)

    # -- the service surface MantleProxy consumes ---------------------------

    def proxy_host(self, proxy_id: int) -> LiveHost:
        host = self._hosts.get(proxy_id)
        if host is None:
            host = self._hosts[proxy_id] = LiveHost(
                self.sim, f"proxy-{proxy_id}", wal_dir=self._wal_dir)
        return host

    def shutdown(self) -> None:
        """Close every proxy's write-ahead file and backend connection."""
        for host in self._hosts.values():
            host.close()
        for service in [*self.tafdb.services, self._index_service]:
            service.connection.close()

    def leader_service(self) -> RemoteService:
        return self._index_service

    def lookup_services(self) -> List[RemoteService]:
        return [self._index_service]


class ProxyFrontend:
    """The proxy process's wire surface: the typed op registry over TCP.

    One method matters — ``perform`` takes an :class:`repro.ops.Op` wire
    payload, drives the operation end to end, and returns the result plus
    the per-op counters a simulated client would read off its OpContext.
    """

    def __init__(self, service: LiveMantleService):
        self.service = service

    def dispatch(self, method: str, args: tuple, kwargs: dict, span=None):
        if method == "ping":
            return {"pong": True, "now_us": self.service.sim.now}
        if method != "perform":
            raise MetadataError(f"proxy frontend has no RPC {method!r}")
        op = Op.from_wire(args[0])
        ctx = OpContext(op.name)
        sim = self.service.sim
        tracer = sim.tracer
        if not tracer.enabled:
            result = yield from self.service.perform(op, ctx)
        else:
            # Handler span mirroring the sim Server.dispatch convention;
            # when the caller shipped trace context, ``span`` is a
            # RemoteSpanRef and the op's whole tree re-parents onto the
            # client's rpc span.
            handler = tracer.begin("rpc_perform", sim.now,
                                   category="handler", parent=span,
                                   host=None)
            ok = False
            try:
                result = yield from self.service.perform(op, ctx)
                ok = True
            finally:
                tracer.end(handler, sim.now, ok=ok)
        return {"result": result, "rpcs": ctx.rpcs,
                "retries": ctx.retries, "latency_us": ctx.latency}


def build_proxy_role(config: MantleConfig, runtime: AsyncioRuntime,
                     wal_dir: Optional[str] = None,
                     tafdb: str = "", indexnode: str = ""):
    """The proxy process over the comma-separated ``tafdb`` endpoints and
    the ``indexnode`` endpoint."""
    from repro.runtime.aio import RpcConnection

    tafdb_services = [RemoteService(f"tafdb-{i}", RpcConnection(endpoint))
                      for i, endpoint in enumerate(tafdb.split(","))]
    index_service = RemoteService("indexnode-0", RpcConnection(indexnode))
    service = LiveMantleService(config, runtime, tafdb_services,
                                index_service, wal_dir=wal_dir)
    return ProxyFrontend(service), [], service.shutdown


_ROLE_BUILDERS = {"tafdb": build_tafdb_role,
                  "indexnode": build_indexnode_role,
                  "proxy": build_proxy_role}


class LiveRole:
    """One live role from assembly to teardown — the one way a role starts.

    :meth:`start` gives the role its own :class:`AsyncioRuntime` (so span
    buffers stay per role even when roles share an event loop), builds its
    dispatcher, drives its background loops on that runtime (TafDB's delta
    compactor, the IndexNode's invalidator — the very generators the
    simulator spawns), binds the :class:`WireServer` and, given a
    ``metrics_port``, a :class:`~repro.runtime.obs.MetricsServer`.
    :meth:`stop` undoes all of it.  ``mantle-serve <role>`` runs one per
    process; :class:`InProcessCluster` runs one per role on a shared loop.
    ``tafdb``/``indexnode`` are the proxy's backend endpoints.  Given
    ``sock``, an already listening socket, the role serves it instead of
    binding ``host:port``, and owns it from then on.
    """

    def __init__(self, role: str, config: MantleConfig, *,
                 trace: bool = False, telemetry: bool = False,
                 wal_dir: Optional[str] = None, host: str = "127.0.0.1",
                 port: int = 0, metrics_port: Optional[int] = None,
                 tafdb: str = "", indexnode: str = "",
                 sock: Optional[socket.socket] = None):
        tracer, registry = build_observability(config, trace, telemetry)
        self.runtime = AsyncioRuntime(tracer=tracer, telemetry=registry,
                                      process_name=role)
        self.role = role
        self.config = config
        self.wal_dir = wal_dir
        self.host = host
        #: The bound ports once started.
        self.port = port
        self._sock = sock
        self.metrics_port = metrics_port
        self._backends = {"tafdb": tafdb, "indexnode": indexnode} \
            if role == "proxy" else {}
        self._server: Optional[WireServer] = None
        self._metrics = None
        self._loops: List[asyncio.Future] = []
        self._close = None

    async def start(self) -> int:
        """Assemble and bind the role; returns its wire port."""
        dispatcher, loops, self._close = _ROLE_BUILDERS[self.role](
            self.config, self.runtime, self.wal_dir, **self._backends)
        self._loops = [asyncio.ensure_future(self.runtime.drive(loop))
                       for loop in loops]
        self._server = WireServer(self.runtime, dispatcher, host=self.host,
                                  port=self.port, sock=self._sock)
        self.port = await self._server.start()
        if self.metrics_port is not None:
            from repro.runtime.obs import MetricsServer

            self._metrics = MetricsServer(self.runtime, host=self.host,
                                          port=self.metrics_port)
            self.metrics_port = await self._metrics.start()
        return self.port

    async def stop(self) -> None:
        """Cancel the background loops, close both listeners, release the
        role's files and backend connections; then raise what a background
        loop died of, if one did."""
        for task in self._loops:
            task.cancel()
        ended = await asyncio.gather(*self._loops, return_exceptions=True)
        if self._metrics is not None:
            await self._metrics.stop()
        if self._server is not None:
            await self._server.stop()
        if self._sock is not None:  # closed with the server, unless the
            self._sock.close()      # role failed before serving it
        if self._close is not None:
            self._close()
        for outcome in ended:
            if isinstance(outcome, Exception):
                raise outcome


# -- clusters ----------------------------------------------------------------

class _Cluster:
    """What both cluster flavours share: the start rule, the stop order,
    the instrumentation switches, and where the running roles can be
    reached (``obs.collect_snapshots(cluster.endpoints, ...)`` reads
    either).

    The start rule: :meth:`_bind_listeners` binds every role's listening
    socket before any role starts, so every endpoint (the proxy's backends
    included) is known up front and the three roles start together.  A
    peer that connects before its target accepts waits in the listen
    backlog, so no role waits for another to come up.
    """

    ROLE_ORDER = ROLE_ORDER

    def __init__(self, wal_dir: Optional[str], trace: bool, telemetry: bool,
                 metrics: bool):
        self.wal_dir = wal_dir
        self.trace = trace
        self.telemetry = telemetry
        self.metrics = metrics
        #: role -> "127.0.0.1:<port>" once started (obs snapshot targets).
        self.endpoints: Dict[str, str] = {}
        #: role -> metrics HTTP port (only with ``metrics=True``).
        self.metrics_ports: Dict[str, int] = {}
        self.proxy_endpoint: Optional[str] = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _role_wal_dir(self, role: str) -> Optional[str]:
        return os.path.join(self.wal_dir, role) if self.wal_dir else None

    def _bind_listeners(self) -> Dict[str, socket.socket]:
        """One listening socket per role; publishes :attr:`endpoints`."""
        listeners = {role: socket.create_server((CLUSTER_HOST, 0))
                     for role in ROLE_ORDER}
        self.endpoints = {role: f"{CLUSTER_HOST}:{sock.getsockname()[1]}"
                          for role, sock in listeners.items()}
        self.proxy_endpoint = self.endpoints["proxy"]
        return listeners


class InProcessCluster(_Cluster):
    """All three roles, one :class:`LiveRole` each, on one background event
    loop, talking over real localhost TCP.  The cheap way for tests (and
    ``--in-process`` runs) to exercise the full wire protocol without
    spawning processes."""

    def __init__(self, config: Optional[MantleConfig] = None,
                 wal_dir: Optional[str] = None, trace: bool = False,
                 telemetry: bool = False, metrics: bool = False):
        super().__init__(wal_dir, trace, telemetry, metrics)
        self.config = config or MantleConfig.small()
        self._roles: List[LiveRole] = []
        self._exit_codes: Dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> str:
        started = threading.Event()
        failed: List[Exception] = []

        def serve() -> None:
            loop = self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._start_roles())
            except Exception as exc:  # surfaced by start()
                failed.append(exc)
            started.set()
            if not failed:
                loop.run_forever()  # until stop()
            loop.run_until_complete(self._stop_roles())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
            loop.close()

        self._thread = threading.Thread(target=serve, name="mantle-live",
                                        daemon=True)
        self._thread.start()
        if not started.wait(timeout=START_TIMEOUT_S):
            raise RuntimeError(
                f"live cluster failed to start in {START_TIMEOUT_S:.0f}s")
        if failed:
            self._thread.join(timeout=STOP_TIMEOUT_S)
            self._thread = None
            raise RuntimeError(f"live cluster startup failed: {failed[0]!r}")
        return self.proxy_endpoint

    async def _start_roles(self) -> None:
        self._roles = [
            LiveRole(role, self.config, trace=self.trace,
                     telemetry=self.telemetry,
                     wal_dir=self._role_wal_dir(role),
                     metrics_port=0 if self.metrics else None,
                     tafdb=self.endpoints["tafdb"],
                     indexnode=self.endpoints["indexnode"], sock=sock)
            for role, sock in self._bind_listeners().items()]
        outcomes = await asyncio.gather(
            *(runner.start() for runner in self._roles),
            return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        if self.metrics:
            self.metrics_ports = {runner.role: runner.metrics_port
                                  for runner in self._roles}

    async def _stop_roles(self) -> None:
        for runner in reversed(self._roles):
            try:
                await runner.stop()
            except Exception:  # noqa: BLE001 - reported as its exit code
                traceback.print_exc()
                self._exit_codes[runner.role] = 1
            else:
                self._exit_codes[runner.role] = 0

    def stop(self) -> Dict[str, int]:
        """Stop every role (proxy first); returns ``{role: 0}`` for each
        role that shut down cleanly, 1 for one that did not."""
        if self._thread is None:
            return {}
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=STOP_TIMEOUT_S)
        self._thread = None
        return {runner.role: self._exit_codes.get(runner.role, 1)
                for runner in reversed(self._roles)}


def _ready_fields(output: bytes) -> Optional[Dict[str, str]]:
    """The fields of the first complete ``MANTLE-SERVE READY port=N
    [metrics=M]`` line in a role's output, or None before there is one."""
    for line in output.split(b"\n")[:-1]:
        if line.startswith(b"MANTLE-SERVE READY"):
            return dict(token.split("=", 1)
                        for token in line.decode().split()[2:]
                        if "=" in token)
    return None


class ProcessCluster(_Cluster):
    """Real OS processes: one ``mantle-serve`` per role.

    :meth:`start` binds the three listening sockets, spawns the three roles
    at once, each inheriting its socket (``--listen-fd``), and waits for
    every role's ``MANTLE-SERVE READY port=<port>`` line against one
    deadline.  Each role's stderr goes to ``<wal_dir>/<role>.log`` (a
    temporary file, removed at :meth:`stop`, without a WAL dir); a failed
    start quotes its tail.  Shutdown is SIGTERM, which each role traps for
    a clean exit 0 (the contract the CI ``live-smoke`` job asserts).
    """

    def __init__(self, config_name: str = "small",
                 wal_dir: Optional[str] = None, trace: bool = False,
                 telemetry: bool = False, metrics: bool = False):
        super().__init__(wal_dir, trace, telemetry, metrics)
        self.config_name = config_name
        self.processes: Dict[str, subprocess.Popen] = {}
        self._log_dir: Optional[str] = None

    def _command(self, role: str, fd: int) -> List[str]:
        argv = [sys.executable, "-m", "repro.runtime.serve", role,
                "--config", self.config_name, "--listen-fd", str(fd)]
        if role == "proxy":
            argv += ["--tafdb", self.endpoints["tafdb"],
                     "--indexnode", self.endpoints["indexnode"]]
        if self.wal_dir:
            argv += ["--wal-dir", self._role_wal_dir(role)]
        if self.trace:
            argv.append("--trace")
        if self.telemetry:
            argv.append("--telemetry")
        if self.metrics:
            argv += ["--metrics-port", "0"]
        return argv

    def _log_path(self, role: str) -> str:
        return os.path.join(self._log_dir, f"{role}.log")

    def _spawn(self, role: str, sock: socket.socket) -> subprocess.Popen:
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        with open(self._log_path(role), "wb") as log:
            return subprocess.Popen(
                self._command(role, sock.fileno()), env=env,
                stdout=subprocess.PIPE, stderr=log,
                pass_fds=(sock.fileno(),))

    def _log_tail(self, role: str, limit: int = 2000) -> str:
        with open(self._log_path(role), "rb") as log:
            log.seek(max(0, log.seek(0, os.SEEK_END) - limit))
            return log.read().decode(errors="replace")

    def _await_ready(self) -> Dict[str, str]:
        """Read every role's stdout until its READY line, all against one
        deadline.  Returns ``{role: why it failed}``, empty when all three
        came up."""
        deadline = time.monotonic() + START_TIMEOUT_S
        output = dict.fromkeys(self.processes, b"")
        failures: Dict[str, str] = {}
        with selectors.DefaultSelector() as selector:
            for role, proc in self.processes.items():
                selector.register(proc.stdout, selectors.EVENT_READ, role)
            while selector.get_map() and not failures:
                events = selector.select(max(0.0, deadline - time.monotonic()))
                if not events:  # the deadline passed
                    for key in selector.get_map().values():
                        failures[key.data] = ("never reported READY in "
                                              f"{START_TIMEOUT_S:g}s")
                for key, _ in events:
                    role = key.data
                    chunk = os.read(key.fd, 4096)
                    output[role] += chunk
                    fields = _ready_fields(output[role])
                    if fields is None and chunk:
                        continue
                    selector.unregister(key.fileobj)
                    why = ("exited before reporting READY" if fields is None
                           else self._ready(role, fields))
                    if why:
                        failures[role] = why
        return failures

    def _ready(self, role: str, fields: Dict[str, str]) -> Optional[str]:
        """Record a READY line's metrics port; returns what is wrong with
        the line, if anything is."""
        if "metrics" in fields:
            self.metrics_ports[role] = int(fields["metrics"])
        listening = self.endpoints[role].rsplit(":", 1)[1]
        if fields.get("port") != listening:
            return (f"reported port {fields.get('port')}, not its inherited "
                    f"listener's {listening}")
        return None

    def start(self) -> str:
        listeners = self._bind_listeners()
        try:
            self._log_dir = self.wal_dir or tempfile.mkdtemp(
                prefix="mantle-cluster-")
            os.makedirs(self._log_dir, exist_ok=True)
            for role, sock in listeners.items():
                self.processes[role] = self._spawn(role, sock)
        except BaseException:
            self.stop()
            raise
        finally:
            for sock in listeners.values():
                sock.close()  # each role holds its own copy
        failures = self._await_ready()
        if failures:
            tails = {role: self._log_tail(role) for role in failures}
            codes = self.stop()
            raise RuntimeError("; ".join(
                f"{role} {why} (rc={codes.get(role)}): {tails[role]}"
                for role, why in failures.items()))
        return self.proxy_endpoint

    def stop(self) -> Dict[str, int]:
        """SIGTERM every role (proxy first) and collect exit codes."""
        roles = [role for role in reversed(self.ROLE_ORDER)
                 if role in self.processes]
        for role in roles:
            if self.processes[role].poll() is None:
                self.processes[role].terminate()
        exit_codes: Dict[str, int] = {}
        for role in roles:
            proc = self.processes.pop(role)
            try:
                exit_codes[role] = proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_codes[role] = proc.wait()
            proc.stdout.close()
        if self._log_dir is not None and not self.wal_dir:
            shutil.rmtree(self._log_dir, ignore_errors=True)
        self._log_dir = None
        return exit_codes
