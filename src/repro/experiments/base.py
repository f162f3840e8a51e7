"""Experiment registry and shared measurement helpers."""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.bench.analyze import classify_run, segment_run
from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.bench.report import Table
from repro.core.config import MantleConfig
from repro.sim.critpath import build_critpath
from repro.sim.host import CostModel, CostOverrides
from repro.sim.profile import build_profile
from repro.sim.stats import MetricSet
from repro.sim.telemetry import Telemetry
from repro.sim.trace import OpAggregate, SpanIndex, TailKeeper, Tracer
from repro.workloads.mdtest import MdtestWorkload
from repro.workloads.namespace import build_namespace, populate

#: The scales every exhibit runs at; a :class:`Case` budget is a
#: ``(quick, full)`` pair.
SCALES = ("quick", "full")


@dataclasses.dataclass(frozen=True)
class Case:
    """One mdtest sweep point: a system, an op, its (quick, full) budgets.

    Exhibits declare their sweeps as tuples of these and run each with
    :func:`run_case`; ``register(knee=...)`` names the ones ``explain``
    and ``whatif`` run.
    """

    label: str
    system: str
    op: str
    mode: str = "exclusive"
    clients: Tuple[int, int] = (32, 128)
    items: Tuple[int, int] = (10, 30)
    depth: int = 10
    #: A non-default deployment (mantle only).
    config: Optional[MantleConfig] = None
    #: Directories (10 objects each) bulk-loaded under ``/bulk`` first.
    prefill: Tuple[int, int] = (0, 0)
    #: A contrasting point only explain's whole-target views (trace,
    #: telemetry) run; per-system views export one file per system and
    #: skip it.
    contrast: bool = False


@dataclasses.dataclass(frozen=True)
class Claim:
    """One paper claim (its comparison and threshold in ``text``) as an
    exhibit's tables measured it.  ``deviation`` numbers the EXPERIMENTS.md
    "Known deviations" entry saying it fails at this scale; such a claim
    must fail, so a stale record fails the run."""

    text: str
    measured: Any
    holds: bool
    deviation: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.holds == (self.deviation is None)

    @property
    def verdict(self) -> str:
        if self.deviation is None:
            return "holds" if self.holds else "FAILS"
        return (f"HOLDS, known deviation {self.deviation} is stale"
                if self.holds else f"fails (known deviation {self.deviation})")


def show(value: Any) -> str:
    """A measured value as one line: ``key value`` pairs, ``a/b`` tuples."""
    if isinstance(value, dict):
        return ", ".join(f"{key} {show(v)}" for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return "/".join(show(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def claims_table(exp_id: str, scale: str, claims: Sequence[Claim]) -> Table:
    table = Table(f"{exp_id} claims (scale={scale})",
                  ["claim", "measured", "verdict"])
    for claim in claims:
        table.add_row(claim.text, show(claim.measured), claim.verdict)
    table.add_note(f"{sum(c.ok for c in claims)}/{len(claims)} pass")
    return table


def rows_by(table: Table, *keys: str) -> Dict[Any, Dict[str, Any]]:
    """A table's rows as ``header -> value`` dicts, indexed by one column
    (or by a tuple of several)."""
    return {row[keys[0]] if len(keys) == 1 else tuple(row[k] for k in keys):
            row for row in table.as_dicts()}


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One reproduced exhibit (figure or table) and its paper claims."""

    id: str
    title: str
    paper_claim: str
    runner: Callable[..., List[Table]]
    #: ``claims(tables)`` yields the exhibit's :class:`Claim` s.
    claims: Callable[[List[Table]], Iterable[Claim]]
    #: scale -> {claim text: EXPERIMENTS.md known-deviation number}.
    deviations: Dict[str, Dict[str, int]] = dataclasses.field(
        default_factory=dict)
    #: Whether ``runner`` takes a ``jobs`` keyword (sweep-style experiments
    #: that can fan per-point simulators across worker processes).
    accepts_jobs: bool = False
    #: The cases ``explain``/``whatif`` run for this exhibit (its target);
    #: empty when it is not one.
    knee: Tuple[Case, ...] = ()

    def run(self, scale: str = "quick", jobs: int = 1) -> List[Table]:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        if self.accepts_jobs:
            return self.runner(scale, jobs=jobs)
        return self.runner(scale)

    def check(self, tables: List[Table], scale: str) -> List[Claim]:
        """Every claim on ``tables``, with ``scale``'s known deviations."""
        expected = dict(self.deviations.get(scale, {}))
        claims = [dataclasses.replace(claim,
                                      deviation=expected.pop(claim.text, None))
                  for claim in self.claims(tables)]
        claims += [Claim(f"known deviation {entry} names a claim: '{text}'",
                         "no such claim", False)
                   for text, entry in expected.items()]
        return claims or [Claim("the exhibit declares a claim", 0, False)]


REGISTRY: Dict[str, Experiment] = {}


def register(exp_id: str, title: str, paper_claim: str,
             claims: Callable[[List[Table]], Iterable[Claim]],
             deviations: Optional[Dict[str, Dict[str, int]]] = None,
             knee: Sequence[Case] = ()):
    """Decorator registering a ``run(scale) -> List[Table]`` function, its
    ``claims(tables)``, per scale its known deviations and, for an
    ``explain`` target, the ``knee`` cases it names.

    Runners may additionally accept a ``jobs`` keyword; the registry
    detects it so ``Experiment.run`` only forwards it where supported.
    """
    def decorate(func):
        if exp_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        REGISTRY[exp_id] = Experiment(
            exp_id, title, paper_claim, func, claims, deviations or {},
            accepts_jobs="jobs" in inspect.signature(func).parameters,
            knee=tuple(knee))
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
    once, over one :attr:`index` of the ring.  The tracer rebuilds span
    objects on every read, so the folds share one read, :attr:`spans`.
    """

    name: str
    metrics: MetricSet
    tracer: Any = None
    telemetry: Any = None
    verdict: Any = None
    phases: Optional[list] = None

    @functools.cached_property
    def spans(self):
        """The ring's finished spans, read once for every fold."""
        return self.tracer.spans

    @functools.cached_property
    def index(self):
        return SpanIndex(self.spans)

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


def run_case(case: Case, scale: str, needs: Iterable[str] = (), *,
             clients: Optional[int] = None, items: Optional[int] = None,
             window_us: Optional[float] = None,
             overrides: CostOverrides = CostOverrides()) -> RunRecord:
    """:func:`instrumented_run` of one mdtest :class:`Case` at ``scale``.

    ``clients``/``items`` override the case's budgets (as on the
    ``explain`` command line).  ``overrides`` reruns the point with a
    what-if speedup applied to the cost model the system is built with,
    the same way for every system.  The record is named
    ``"<system> <op>"``.
    """
    config = case.config
    costs = overrides.apply(config.costs if config else CostModel())
    prefill = pick(scale, *case.prefill)

    def build():
        # Prefilled before the rig attaches, so the saturation window
        # reflects the measured workload, not bulk loading.
        system = build_system(case.system, "quick", config=config,
                              costs=costs)
        if prefill:
            populate(system, build_namespace(num_dirs=prefill,
                                             objects_per_dir=10, seed=5,
                                             root="/bulk"))
        return system

    workload = MdtestWorkload(
        case.op, mode=case.mode, depth=case.depth,
        items=items or pick(scale, *case.items),
        num_clients=clients or pick(scale, *case.clients))
    return instrumented_run(build,
                            lambda system: run_workload(system, workload),
                            needs, window_us=window_us,
                            name=f"{case.system} {case.op}")


def saturation_point(point) -> Tuple[float, int, str]:
    """Pool worker for a throughput sweep (module level for pickling): one
    ``(case, scale)`` cell under the saturation analyzer -> ``(Kop/s,
    retries, bottleneck label)``.  The analyzer's telemetry is pure
    bookkeeping, so throughput equals an uninstrumented run's."""
    record = run_case(*point, ("verdict",))
    metrics = record.metrics
    return metrics.throughput_kops(), metrics.retries, record.verdict.label


def op_aggregate(record: RunRecord, op: str) -> OpAggregate:
    """``op``'s span fold from a traced run: per-phase means (the only
    phase record), mean latency and mean RPCs.  The tracer folds every op
    as it ends, so a ring that dropped spans still gives exact means.

    Raises ``RuntimeError`` when no ``op`` completed.
    """
    agg = record.tracer.aggregates.get(op)
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
