"""Simulated servers: CPU cores and fsync-charged disks.

Each metadata server in the paper's Table 2 deployment becomes a
:class:`Host` with a finite core count.  Service logic charges CPU through
:meth:`Host.work`, which occupies one core for the given number of simulated
microseconds — this is what makes a single IndexNode saturate (Figure 19b)
and what makes LocoFS's central directory server the bottleneck the paper
describes.  A charge is one :class:`Slice` event, which the kernel grants,
times and releases.

The :class:`CostModel` gathers every constant in one place so experiments
(and tests) can build deliberately skewed models.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Tuple

from repro.errors import ServiceUnavailableError
from repro.sim.core import _PENDING, SimulationError, Simulator
from repro.sim.resources import Request, Resource


@dataclasses.dataclass
class CostModel:
    """All simulated costs, in microseconds.

    The defaults are loosely calibrated to a 25 Gbps datacenter network and
    NVMe-backed servers, matching the ratios (not the absolutes) that drive
    the paper's results: an RPC round trip is ~2 orders of magnitude more
    expensive than a local hash probe, and an fsync is comparable to an RTT.
    """

    #: One-way network latency (RTT = 2x).
    net_one_way_us: float = 50.0
    #: Read one row from a TafDB shard (request handling + B-tree probe).
    db_row_read_us: float = 25.0
    #: Write one row (index update + WAL append, group-committed).
    db_row_write_us: float = 50.0
    #: Fixed per-transaction bookkeeping on a shard.
    db_txn_overhead_us: float = 20.0
    #: Effective durable-commit cost per TafDB commit (group-committed WAL).
    db_commit_sync_us: float = 40.0
    #: One level of IndexTable probing on the IndexNode.
    index_probe_us: float = 8.0
    #: One TopDirPathCache hit (single hash probe).
    cache_hit_us: float = 2.0
    #: Fixed request handling (parse/dispatch/marshal) per IndexNode RPC —
    #: the dominant CPU term that makes a single IndexNode saturate (§7
    #: measures ~500K ops/s/node, i.e. ~100us of CPU per op on 64 cores).
    index_rpc_overhead_us: float = 30.0
    #: Durable fsync of a Raft log segment.
    fsync_us: float = 120.0
    #: Applying one committed Raft entry to the state machine.
    raft_apply_us: float = 1.0
    #: Raft replication message handling (append-entries processing).
    raft_msg_us: float = 2.0
    #: Proxy request parsing/marshalling per client request.
    proxy_overhead_us: float = 2.0
    #: Per-level permission intersection.
    permission_check_us: float = 0.3
    #: Base/ceiling for exponential backoff after a transaction abort.
    backoff_base_us: float = 200.0
    backoff_max_us: float = 20000.0
    #: Data-service access for one small object (§3: single RPC + tens of us
    #: of SSD device time).
    data_io_small_us: float = 80.0

    def copy(self, **overrides) -> "CostModel":
        return dataclasses.replace(self, **overrides)


#: What-if override components -> the CostModel fields they scale.  A
#: component names one mechanically-improvable piece of the deployment
#: (faster NVMe under the Raft log, kernel-bypass networking, a leaner
#: request parser...), which usually covers several cost constants at once.
COMPONENT_FIELDS = {
    "proxy.cpu": ("proxy_overhead_us",),
    "index.cpu": ("index_probe_us", "index_rpc_overhead_us",
                  "cache_hit_us", "permission_check_us"),
    "raft.cpu": ("raft_apply_us", "raft_msg_us"),
    "raft.fsync": ("fsync_us",),
    "tafdb.cpu": ("db_row_read_us", "db_row_write_us",
                  "db_txn_overhead_us"),
    "tafdb.fsync": ("db_commit_sync_us",),
    "net.rtt": ("net_one_way_us",),
    "data.io": ("data_io_small_us",),
}


@dataclasses.dataclass(frozen=True)
class CostOverrides:
    """A declarative "virtual speedup": per-component cost scale factors.

    ``speedups`` maps a :data:`COMPONENT_FIELDS` component to a factor
    ``f``; applying the overrides divides each of the component's cost
    constants by ``f`` (``f=2.0`` halves the cost, ``f=0.5`` doubles it).
    The scaled :class:`CostModel` then threads through the whole
    deployment — hosts, network, Raft group, TafDB servers — exactly like
    a hand-edited cost model would, so a what-if rerun measures the real
    (queueing included) effect of the hypothesised change.
    """

    speedups: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(cls, **speedups: float) -> "CostOverrides":
        return cls.parse(speedups)

    @classmethod
    def parse(cls, speedups: Dict[str, float]) -> "CostOverrides":
        """Validate a {component: factor} mapping into overrides."""
        items = []
        for component, factor in sorted(speedups.items()):
            if component not in COMPONENT_FIELDS:
                known = ", ".join(sorted(COMPONENT_FIELDS))
                raise ValueError(f"unknown override component "
                                 f"{component!r}; known: {known}")
            factor = float(factor)
            if factor <= 0.0:
                raise ValueError(f"{component}: speedup factor must be "
                                 f"positive, got {factor}")
            items.append((component, factor))
        return cls(tuple(items))

    def as_dict(self) -> Dict[str, float]:
        return dict(self.speedups)

    def __bool__(self) -> bool:
        return bool(self.speedups)

    def apply(self, costs: "CostModel") -> "CostModel":
        """Return a copy of ``costs`` with every override applied."""
        scaled = {}
        for component, factor in self.speedups:
            for field in COMPONENT_FIELDS[component]:
                base = scaled.get(field, getattr(costs, field))
                scaled[field] = base / factor
        return costs.copy(**scaled) if scaled else costs


def parse_speedup_args(args: "Iterable[str]") -> CostOverrides:
    """Parse CLI ``component=FACTORx`` fragments into overrides.

    Accepts ``raft.fsync=2x``, ``net.rtt=2``, ``tafdb.cpu=1.5x``; the
    trailing ``x`` is optional.  Repeated components multiply.
    """
    speedups: Dict[str, float] = {}
    for arg in args:
        component, sep, factor_text = arg.partition("=")
        if not sep or not component or not factor_text:
            raise ValueError(f"bad speedup {arg!r}; expected "
                             "component=FACTOR[x], e.g. raft.fsync=2x")
        factor_text = factor_text.rstrip("xX")
        try:
            factor = float(factor_text)
        except ValueError:
            raise ValueError(f"bad speedup factor in {arg!r}") from None
        speedups[component] = speedups.get(component, 1.0) * factor
    return CostOverrides.parse(speedups)


class Slice(Request):
    """``us`` microseconds on one slot of a host's CPU or disk, as one event.

    The kernel drives it from request to release.  Its grant (a free slot
    at :meth:`Resource.acquire`, or a release handing one on) queues
    ``(Slice._start, slice)`` on the microtask deque where a plain request
    would trigger.  ``_start`` pushes the slice itself onto the heap at
    ``now + us``, taking the sequence number the holder's ``Timeout`` took
    when it resumed from that trigger.  ``_done``, the slice's first
    callback, books the charge and releases the slot before anyone waiting
    on the slice runs.  So the holder resumes once where a request and a
    timeout resumed it twice, and every event keeps its place in the order.

    Charges land where the holder's own code put them: ``holder`` is the
    process that asked for the slice, published as the running one while
    the kernel charges and releases on its behalf (span costs and occupant
    tags are keyed by it).  A CPU charge uses the tracer seen at the grant,
    a disk charge the one seen at completion.  A crashed host fails a CPU
    slice with :class:`ServiceUnavailableError` once its slot is released.
    """

    __slots__ = ("host", "us", "holder", "_tracer")

    def __init__(self, host: "Host", resource: Resource, us: float):
        sim = host.sim
        self.sim = sim
        self.callbacks = [self._done]
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self._enqueue_time = sim._now
        self._granted = False
        self.host = host
        self.us = us
        self.holder = sim._active_process
        resource.acquire(self)

    def _admit(self) -> None:
        self.sim._micro.append((Slice._start, self))

    def _start(self) -> None:
        if not self._granted:
            return  # abandoned while its grant was queued
        sim = self.sim
        tracer = self._tracer = sim.tracer
        if tracer.enabled:
            wait = sim._now - self._enqueue_time
            if wait > 0.0:
                running, sim._active_process = sim._active_process, self.holder
                tracer.charge("queue", wait, self.host.name,
                              resource=self.resource.label,
                              by=getattr(self, "_blame", None))
                sim._active_process = running
        sim._at(self.us, self._expiry())

    def _expiry(self):
        """What the heap delivers when the charge is up: the slice itself,
        whose first callback is :meth:`_done`."""
        return self

    def _done(self, _event) -> None:
        if not self._granted:
            return  # abandoned: the slot went back already
        error = self._settle()
        if error is None:
            self._value = None
        else:
            self._ok = False
            self._value = error

    def _settle(self):
        """Book the charge and hand the slot on, as the holder.  Returns
        the error a crashed host fails a CPU slice with, else None."""
        sim = self.sim
        host = self.host
        resource = self.resource
        us = self.us
        running, sim._active_process = sim._active_process, self.holder
        error = None
        if resource is host.cpu:
            host.cpu_busy_us += us
            if self._tracer.enabled:
                self._tracer.charge("cpu", us, host.name)
            telemetry = sim.telemetry
            if telemetry.enabled:
                now = sim._now
                telemetry.counter("host.cpu_busy_us", host.name,
                                  capacity=host.cores).add_interval(
                    now - us, now, us)
            resource.release(self)
            if host.crashed:
                error = ServiceUnavailableError(host.name)
        else:
            host.fsync_count += 1
            host._record_fsync(us)
            resource.release(self)
        sim._active_process = running
        return error

    def abandon(self) -> None:
        """Withdraw for a holder that stopped waiting (an interrupt): a
        queued slice leaves the queue, a granted one hands its slot on, a
        finished one is left alone."""
        if self._granted:
            self.resource.release(self)
        else:
            self.cancel()


class Host:
    """A simulated server with ``cores`` CPU cores and one durable disk."""

    def __init__(self, sim: Simulator, name: str, cores: int = 32,
                 fsync_us: float = 120.0):
        self.sim = sim
        self.name = name
        self.cores = cores
        self.cpu = Resource(sim, cores, label="cpu", host=name)
        self.disk = Resource(sim, 1, label="disk", host=name)
        self.fsync_us = fsync_us
        self.fsync_count = 0
        self.cpu_busy_us = 0.0
        self.crashed = False

    def __repr__(self):
        return f"<Host {self.name} cores={self.cores}>"

    def work(self, us: float):
        """Occupy one CPU core for ``us`` simulated microseconds (a
        generator to ``yield from``).

        Raises :class:`ServiceUnavailableError` if the host has been crashed
        by failure injection, at the start or by the end of the charge.
        """
        return self._occupy(self.cpu, us)

    def fsync(self):
        """Charge one durable flush."""
        return self._occupy(self.disk, self.fsync_us)

    def fsync_cost(self, us: float):
        """Charge a caller-specified durable-write cost on the disk.

        TafDB's group-committed WAL writes are cheaper than a full Raft log
        segment fsync, so callers pass their own duration here; plain
        :meth:`fsync` uses the host default.
        """
        return self._occupy(self.disk, us)

    def _occupy(self, resource: Resource, us: float):
        """Wait on one :class:`Slice`; a holder interrupted meanwhile gives
        the slot back instead of leaking it."""
        if self.crashed:
            raise ServiceUnavailableError(self.name)
        if us < 0:
            raise SimulationError(f"negative charge: {us}")
        held = Slice(self, resource, us)
        try:
            yield held
        except BaseException:
            held.abandon()
            raise

    def _record_fsync(self, us: float) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.charge("fsync", us, self.name)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            now = self.sim._now
            telemetry.counter("host.fsync", self.name).add(now)
            telemetry.counter("host.disk_busy_us", self.name,
                              capacity=1.0).add_interval(now - us, now, us)

    def crash(self) -> None:
        """Failure injection: subsequent work on this host fails."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of total core-time spent busy over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return self.cpu_busy_us / (elapsed_us * self.cores)
