"""Experiment registry and shared measurement helpers."""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.bench.analyze import classify_run, segment_run
from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.bench.report import Table
from repro.sim.critpath import build_critpath
from repro.sim.profile import build_profile
from repro.sim.stats import MetricSet
from repro.sim.telemetry import Telemetry
from repro.sim.trace import (OpAggregate, SpanIndex, TailKeeper, Tracer,
                             aggregate_ops)
from repro.workloads.mdtest import MdtestWorkload

#: Per-experiment client/item budgets by scale.
SCALES = ("quick", "full")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One reproduced exhibit (figure or table)."""

    id: str
    title: str
    paper_claim: str
    runner: Callable[..., List[Table]]
    #: Whether ``runner`` takes a ``jobs`` keyword (sweep-style experiments
    #: that can fan per-point simulators across worker processes).
    accepts_jobs: bool = False

    def run(self, scale: str = "quick", jobs: int = 1) -> List[Table]:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        if self.accepts_jobs:
            return self.runner(scale, jobs=jobs)
        return self.runner(scale)


REGISTRY: Dict[str, Experiment] = {}


def register(exp_id: str, title: str, paper_claim: str):
    """Decorator registering a ``run(scale) -> List[Table]`` function.

    Runners may additionally accept a ``jobs`` keyword; the registry
    detects it so ``Experiment.run`` only forwards it where supported.
    """
    def decorate(func):
        if exp_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        REGISTRY[exp_id] = Experiment(
            exp_id, title, paper_claim, func,
            accepts_jobs="jobs" in inspect.signature(func).parameters)
        return func
    return decorate


def _apply_point(task):
    """Pool worker for :func:`map_points` (module level for pickling)."""
    func, point = task
    return func(point)


def map_points(func: Callable, points: Sequence, jobs: int = 1) -> List:
    """Evaluate ``func`` over independent sweep points, preserving order.

    With ``jobs > 1`` the points run across a process pool — each sweep
    point owns its own :class:`~repro.sim.core.Simulator`, so results are
    identical to the serial path; only wall-clock changes.  ``func`` must be
    a module-level callable and its result picklable.
    """
    points = list(points)
    if jobs <= 1 or len(points) <= 1:
        return [func(point) for point in points]
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()
    with ctx.Pool(min(jobs, len(points))) as pool:
        return pool.map(_apply_point, [(func, point) for point in points])


def get_experiment(exp_id: str) -> Experiment:
    if exp_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}")
    return REGISTRY[exp_id]


def list_experiments() -> List[Experiment]:
    return [REGISTRY[key] for key in sorted(REGISTRY)]


def pick(scale: str, quick, full):
    """Select a parameter by scale."""
    return quick if scale == "quick" else full


#: What an instrumented run may be asked to carry (see
#: :func:`instrumented_run`); each implies the ones it depends on.
RIG_NEEDS = ("tracer", "keeper", "telemetry", "verdict", "phases")


@dataclasses.dataclass
class RunRecord:
    """Everything one instrumented run leaves behind.

    The recorded facts — ``metrics``, the ``tracer``'s spans, the
    windowed ``telemetry`` — plus whatever had to be derived while the
    system was still up (``verdict``, ``phases``).  Every explanation
    view is a fold over this record; the span folds several views share
    (:attr:`crit` with its blame matrix, :attr:`profile`) are computed
    once, over one :attr:`index` of the ring.
    """

    name: str
    metrics: MetricSet
    tracer: Any = None
    telemetry: Any = None
    verdict: Any = None
    phases: Optional[list] = None

    @functools.cached_property
    def index(self):
        return SpanIndex(self.tracer.spans)

    @functools.cached_property
    def crit(self):
        return build_critpath(self.index, name=self.name)

    @functools.cached_property
    def profile(self):
        return build_profile(self.index, dict(self.tracer.unattributed),
                             name=self.name)


def instrumented_run(build: Callable[[], Any],
                     drive: Callable[[Any], MetricSet],
                     needs: Iterable[str] = (),
                     window_us: Optional[float] = None,
                     name: str = "") -> RunRecord:
    """The one instrumented run: build, attach the rig, drive, tear down.

    ``build()`` returns a started system (anything with ``.sim`` and
    ``.shutdown()``), ``drive(system)`` runs the workload and returns its
    :class:`~repro.sim.stats.MetricSet`.  ``needs`` (from
    :data:`RIG_NEEDS`) selects the rig: a bound
    :class:`~repro.sim.trace.Tracer` (``tracer``), carrying a
    :class:`~repro.sim.trace.TailKeeper` (``keeper``); a
    :class:`~repro.sim.telemetry.Telemetry` windowed at ``window_us``
    (``telemetry``); the saturation analyzer's ``verdict`` and the
    change-point ``phases``, both derived *before* teardown because they
    read the live system's cost model and host set.  All of it is pure
    bookkeeping: the metrics are bit-identical to an uninstrumented run.
    """
    needs = frozenset(needs)
    unknown = needs - frozenset(RIG_NEEDS)
    if unknown:
        raise ValueError(f"unknown rig needs {sorted(unknown)}; "
                         f"pick from {RIG_NEEDS}")
    system = build()
    tracer = telemetry = verdict = phases = None
    try:
        sim = system.sim
        if needs & {"tracer", "keeper"}:
            tracer = Tracer(
                keeper=TailKeeper() if "keeper" in needs else None)
            tracer.bind(sim)
            sim.tracer = tracer
        if needs & {"telemetry", "verdict", "phases"}:
            telemetry = Telemetry(window_us) if window_us else Telemetry()
            sim.telemetry = telemetry
        metrics = drive(system)
        if "verdict" in needs:
            verdict = classify_run(system, metrics, telemetry)
        if "phases" in needs:
            phases = segment_run(system, metrics, telemetry)
        return RunRecord(name, metrics, tracer, telemetry, verdict, phases)
    finally:
        system.shutdown()


def mdtest_run(system_name: str, op: str, needs: Iterable[str] = (),
               mode: str = "exclusive", clients: int = 32, items: int = 10,
               depth: int = 10, window_us: Optional[float] = None,
               **build_overrides) -> RunRecord:
    """:func:`instrumented_run` bound to one mdtest workload on one of
    the four systems (``build_overrides`` go to
    :func:`~repro.bench.cluster.build_system`)."""
    workload = MdtestWorkload(op, mode=mode, depth=depth, items=items,
                              num_clients=clients)
    return instrumented_run(
        lambda: build_system(system_name, "quick", **build_overrides),
        lambda system: run_workload(system, workload),
        needs, window_us=window_us, name=f"{system_name} {op}")


def mdtest_metrics(system_name: str, op: str, **run_kwargs) -> MetricSet:
    """Build a system, run one mdtest workload uninstrumented, tear down,
    return the metrics (keywords as for :func:`mdtest_run`)."""
    return mdtest_run(system_name, op, **run_kwargs).metrics


def op_aggregate(record: RunRecord, op: str) -> OpAggregate:
    """``op``'s span fold from a traced run: per-phase means (the only
    phase record), mean latency and mean RPCs.

    Raises ``RuntimeError`` when spans fell out of the trace ring — means
    over a truncated ring would silently under-count — or when no ``op``
    completed.
    """
    tracer = record.tracer
    if tracer.dropped:
        raise RuntimeError(
            f"{record.name}: {tracer.dropped} spans fell out of the trace "
            f"ring; phase means would under-count")
    agg = aggregate_ops(record.index).get(op)
    if agg is None or not agg.count:
        raise RuntimeError(f"{record.name}: no successful {op!r} spans")
    return agg


def app_metrics(system_name: str, workload, data_access: bool = False,
                **build_overrides) -> MetricSet:
    """Run an application workload (Spark/Audio) on one system."""
    system = build_system(system_name, "quick", **build_overrides)
    try:
        system.data_access_enabled = data_access
        return run_workload(system, workload)
    finally:
        system.shutdown()
