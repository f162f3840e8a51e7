"""MantleClient — the synchronous public facade.

Hides the discrete-event simulation behind an ordinary Python API: each call
spawns the operation as a simulated process and drives the event loop until
it completes.  This is what the examples and downstream users consume::

    from repro import MantleClient, MantleConfig

    with MantleClient(MantleConfig.small()) as client:
        client.mkdir("/datasets/audio")
        client.create("/datasets/audio/seg-000.bin", size=4096)
        print(client.listdir("/datasets/audio"))

Operations dispatch through the typed registry (:mod:`repro.ops`); mutating
calls return :class:`~repro.types.OpResult` — an ``int`` subclass carrying
the inode id plus the per-call RPC/latency measurements — and reads return
:class:`~repro.types.StatResult` or entry lists.  Errors raise the
:mod:`repro.errors` hierarchy.  The typed methods live once, on
:class:`ClientOps`, which the live ``LiveClient`` shares; each client adds
only its own drive.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, List, Optional, Sequence

from repro.core.config import MantleConfig
from repro.core.service import MantleSystem
from repro.errors import MetadataError, NoSuchPathError
from repro.ops import (
    Create,
    Delete,
    DirStat,
    Mkdir,
    ObjStat,
    Op,
    ReadDir,
    Rename,
    Rmdir,
    SetAttr,
)
from repro.paths import ancestors, normalize as paths_normalize
from repro.sim.stats import MetricSet, OpContext
from repro.types import OpResult, Permission, StatResult


@dataclasses.dataclass
class BatchResult:
    """Outcome of one operation inside a client's ``batch``."""

    op: Op
    result: Any = None
    error: Optional[MetadataError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass(frozen=True)
class _ReadDirPage(ReadDir):
    """One page of a listing: Mantle's proxy ``op_readdir`` with its
    pagination arguments.  Simulator-only — never registered and never on
    the wire, where ``ReadDir`` keeps its one-field form."""

    limit: Optional[int] = None
    start_after: Optional[str] = None


def op_result(result: Any, ctx: OpContext) -> Any:
    """A mutation's inode id as an :class:`OpResult` carrying the op's
    counters; any other result unchanged."""
    if isinstance(result, int) and not isinstance(result, bool):
        return OpResult(result, rpcs=ctx.rpcs, retries=ctx.retries,
                        latency_us=ctx.latency)
    return result


class ClientOps:
    """The typed client surface, defined once for the simulated
    :class:`MantleClient` and the live ``repro.runtime.client.LiveClient``.

    A subclass supplies only its drive: :meth:`perform` runs one op
    (mutations come back as :class:`OpResult`, failures raise) and
    :meth:`_perform_many` runs several together, returning per op, in op
    order, its result or the :class:`MetadataError` that failed it.
    """

    def perform(self, op: Op) -> Any:
        raise NotImplementedError

    def _perform_many(self, ops: Sequence[Op]) -> List[Any]:
        raise NotImplementedError

    # -- namespace operations ------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> OpResult:
        """Create a directory; with ``parents=True`` create missing ancestors.

        The ancestor resolution walks *up* from the deepest ancestor until
        an existing directory is found (one ``dirstat`` per probed level),
        then creates the missing chain downwards.
        """
        if parents:
            chain = ancestors(paths_normalize(path))[1:]  # strict, sans root
            missing: List[str] = []
            for ancestor in reversed(chain):
                try:
                    self.dirstat(ancestor)
                    break
                except NoSuchPathError:
                    missing.append(ancestor)
                except MetadataError:
                    break  # exists but is not a plain dir; let mkdir surface it
            for ancestor in reversed(missing):
                self.perform(Mkdir(ancestor))
        return self.perform(Mkdir(path))

    def rmdir(self, path: str) -> OpResult:
        return self.perform(Rmdir(path))

    def create(self, path: str, size: int = 0) -> OpResult:
        """Create an object (PUT without data body in this model)."""
        del size  # size is recorded via bulk loaders; kept for API symmetry
        return self.perform(Create(path))

    def delete(self, path: str) -> OpResult:
        return self.perform(Delete(path))

    def objstat(self, path: str) -> StatResult:
        return self.perform(ObjStat(path))

    def dirstat(self, path: str) -> StatResult:
        return self.perform(DirStat(path))

    def stat(self, path: str) -> StatResult:
        """stat either kind: try the object path first, then directory."""
        try:
            return self.objstat(path)
        except MetadataError:
            return self.dirstat(path)

    def listdir(self, path: str) -> List[str]:
        return self.perform(ReadDir(path))

    def rename(self, src: str, dst: str) -> OpResult:
        """Atomic cross-directory rename with loop detection."""
        return self.perform(Rename(src, dst))

    def setattr(self, path: str, permission: Permission) -> StatResult:
        return self.perform(SetAttr(path, permission))

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except MetadataError:
            return False

    def batch(self, ops: Iterable[Op]) -> List[BatchResult]:
        """Run several typed operations together.

        All operations are in flight at once; per-op failures land in
        ``BatchResult.error`` rather than raising, so one conflict cannot
        abort its siblings; results come back in op order.
        """
        items = [BatchResult(op) for op in ops]
        outcomes = self._perform_many([item.op for item in items])
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, MetadataError):
                item.error = outcome
            else:
                item.result = outcome
        return items


class MantleClient(ClientOps):
    """Synchronous client over a simulated Mantle deployment.

    Parameters
    ----------
    config:
        Cluster shape and optimisation toggles; defaults to
        :meth:`MantleConfig.small`, a three-replica deployment suitable for
        examples and tests (the dataclass defaults, ``MantleConfig()``, are
        the Table 2 shape).

    The client is a context manager: ``with MantleClient() as c: ...`` shuts
    the simulated cluster down on exit.
    """

    def __init__(self, config: Optional[MantleConfig] = None):
        self.system = MantleSystem(config or MantleConfig.small())
        self.system.startup()
        self.metrics = MetricSet()
        self.metrics.started_at = self.system.sim.now

    # -- the drive -----------------------------------------------------------------

    def perform(self, op: Op) -> Any:
        """Run one typed op as a simulated process and drive the event loop
        until it completes; mutations come back as :class:`OpResult`.

        Same contract as ``repro.runtime.client.LiveClient.perform`` — the
        agreement suite replays one trace through both.
        """
        ctx = OpContext(op.name)
        sim = self.system.sim
        result = sim.run_process(self.system.perform(op, ctx, self.metrics),
                                 name=op.name)
        self.metrics.finished_at = sim.now
        return op_result(result, ctx)

    def _perform_many(self, ops: Sequence[Op]) -> List[Any]:
        """Spawn every op as a simulated process before the event loop
        runs, so they overlap exactly like concurrent clients would — one
        simulator drive for the lot."""
        sim = self.system.sim
        outcomes: List[Any] = [None] * len(ops)

        def run_one(position: int, op: Op):
            ctx = OpContext(op.name)
            try:
                result = yield from self.system.perform(op, ctx, self.metrics)
            except MetadataError as exc:
                outcomes[position] = exc
                return
            outcomes[position] = op_result(result, ctx)

        if ops:
            done = sim.all_of([
                sim.process(run_one(position, op), name=f"batch-{op.name}")
                for position, op in enumerate(ops)
            ])
            sim.run_until(done)
            self.metrics.finished_at = sim.now
        return outcomes

    # -- simulator-only listing ------------------------------------------------------

    def listdir_page(self, path: str, limit: int,
                     start_after: Optional[str] = None) -> List[str]:
        """One page of directory entries (S3-style continuation listing)."""
        return self.perform(_ReadDirPage(path, limit, start_after))

    # -- observability --------------------------------------------------------------

    @property
    def simulated_time_us(self) -> float:
        return self.system.sim.now

    @property
    def tracer(self):
        """The simulator's span tracer (the no-op singleton when off)."""
        return self.system.sim.tracer

    @property
    def telemetry(self):
        """The simulator's time-series registry (the no-op singleton when
        off; enable with ``MANTLE_TELEMETRY=1`` or by assigning a
        :class:`~repro.sim.telemetry.Telemetry` to the simulator)."""
        return self.system.sim.telemetry

    def cache_stats(self) -> dict:
        """TopDirPathCache statistics of the current leader replica."""
        leader = self.system.index_group.leader_or_raise()
        cache = leader.state_machine.cache
        return {
            "entries": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hit_rate,
            "memory_bytes": cache.memory_bytes,
        }

    def close(self) -> None:
        self.system.shutdown()

    def __enter__(self) -> "MantleClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
