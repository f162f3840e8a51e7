"""Parallel experiment executor behind ``mantle-exp all --jobs N``.

Every experiment owns an independent :class:`repro.sim.core.Simulator`, so
experiments are embarrassingly parallel: this module fans them out over a
``multiprocessing`` pool and merges the results back in registry order, so
the output is byte-identical no matter how many workers ran or in which
order they finished.  Simulated results are unaffected by parallelism by
construction — each worker runs exactly the code the serial path runs.
Each worker also evaluates its experiment's paper claims on the tables it
made (:meth:`repro.experiments.base.Experiment.check`).

Sweep-style experiments additionally fan their per-point simulators across
workers via :func:`repro.experiments.base.map_points` when invoked with
``jobs > 1`` (``mantle-exp run fig19 --jobs 4``).
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import Iterator, List, Optional, Sequence

from repro.bench.report import Table
from repro.experiments.base import Claim, get_experiment, list_experiments


@dataclasses.dataclass
class ExperimentOutcome:
    """One experiment's tables, evaluated claims and wall-clock."""

    exp_id: str
    title: str
    wall_s: float
    tables: List[Table]
    claims: List[Claim] = dataclasses.field(default_factory=list)
    error: Optional[str] = None

    @property
    def status(self) -> str:
        failed = sum(not claim.ok for claim in self.claims)
        if self.error is not None:
            return "ERROR"
        return f"claims failed: {failed}" if failed else "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _run_worker(args) -> ExperimentOutcome:
    """Pool worker: run one experiment and time it (module-level for
    pickling)."""
    exp_id, scale = args
    # Imported for its side effect: populates the registry in freshly
    # spawned workers (fork inherits it, spawn does not).
    import repro.experiments  # noqa: F401
    experiment = get_experiment(exp_id)
    started = time.perf_counter()
    try:
        tables = experiment.run(scale=scale)
        wall_s = time.perf_counter() - started
        claims = experiment.check(tables, scale)
    except Exception:  # noqa: BLE001 - reported to the merge step
        return ExperimentOutcome(exp_id, experiment.title,
                                 time.perf_counter() - started, [],
                                 error=traceback.format_exc())
    return ExperimentOutcome(exp_id, experiment.title, wall_s, tables,
                             claims)


def run_experiments(scale: str = "quick",
                    jobs: int = 1) -> Iterator[ExperimentOutcome]:
    """Run every experiment, optionally across ``jobs`` worker processes,
    yielding outcomes in registry order regardless of completion order."""
    tasks = [(experiment.id, scale) for experiment in list_experiments()]
    if jobs <= 1:
        yield from map(_run_worker, tasks)
        return

    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()
    with ctx.Pool(min(jobs, len(tasks))) as pool:
        # imap (not imap_unordered): completion order may vary, delivery
        # order is registry order — deterministic merge for free.
        yield from pool.imap(_run_worker, tasks)


def wallclock_table(outcomes: Sequence[ExperimentOutcome]) -> Table:
    """Per-experiment wall-clock summary, slowest first."""
    total = sum(o.wall_s for o in outcomes)
    table = Table("Wall-clock per experiment (slowest first)",
                  ["experiment", "wall (s)", "% of total", "status"])
    for outcome in sorted(outcomes, key=lambda o: -o.wall_s):
        table.add_row(
            outcome.exp_id,
            round(outcome.wall_s, 2),
            round(100.0 * outcome.wall_s / total, 1) if total > 0 else 0.0,
            outcome.status)
    table.add_note(f"total {total:.1f}s across {len(outcomes)} experiments")
    return table
