"""The workload runner: N simulated clients against one metadata system."""

from __future__ import annotations

from typing import Optional

from repro.errors import MetadataError
from repro.ops import make_op
from repro.sim.stats import MetricSet


def run_workload(system, workload, num_clients: Optional[int] = None,
                 metrics: Optional[MetricSet] = None,
                 setup: bool = True) -> MetricSet:
    """Run ``workload`` with concurrent clients; returns the metrics.

    Each client is one simulated process draining its operation stream
    back-to-back (closed-loop, like mdtest threads).  Failures surface in
    ``metrics.ops_failed`` rather than aborting the run — contended
    workloads are *supposed* to abort and retry.
    """
    if num_clients is None:
        num_clients = getattr(workload, "num_clients")
    if setup:
        workload.setup(system)
    metrics = metrics or MetricSet()
    sim = system.sim

    def client(cid: int):
        # Hoisted lookup: this loop runs once per simulated op.
        perform = system.perform
        for op, args in workload.client_ops(cid):
            try:
                yield from perform(make_op(op, *args), None, metrics)
            except MetadataError:
                pass  # recorded in metrics.ops_failed by perform

    metrics.started_at = sim.now
    done = sim.all_of([
        sim.process(client(cid), name=f"client-{cid}")
        for cid in range(num_clients)
    ])
    sim.run_until(done)
    if not done.triggered:
        raise RuntimeError("workload deadlocked: clients never finished")
    metrics.finished_at = sim.now
    return metrics
