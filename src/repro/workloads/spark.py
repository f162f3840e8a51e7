"""Interactive Spark analytics workload (§3.2, §6.2: 'Analytics').

The production pattern: each ad-hoc query spawns hundreds of subtasks; each
subtask writes results into a private temporary directory and then
*atomically renames* it into a single shared output directory during the
commit phase.  All directory modifications therefore target the same parent
attribute — the contention that collapses DBtable-based services and that
Mantle's delta records absorb.

One simulated client = one subtask:

1. ``mkdir``   <staging>/task<cid>           (shared staging parent)
2. ``create``  result part files inside it   (private, no conflicts)
3. ``dirstat`` the task directory            (commit-protocol check)
4. ``dirrename`` <staging>/task<cid> -> <output>/task<cid>
                                            (shared output parent)
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.workloads.namespace import ensure_chain


class SparkAnalyticsWorkload:
    """Ad-hoc query commit phase: temp-dir rename into a shared output."""

    def __init__(self, num_clients: int = 16, parts_per_task: int = 4,
                 rounds: int = 3, depth: int = 8, root: str = "/warehouse"):
        if rounds < 1 or parts_per_task < 0:
            raise ValueError("rounds >= 1 and parts_per_task >= 0 required")
        self.num_clients = num_clients
        self.parts_per_task = parts_per_task
        self.rounds = rounds
        self.depth = depth
        self.root = root
        self.staging = ""
        self.output = ""

    def setup(self, system) -> None:
        base = ensure_chain(system, f"{self.root}/query",
                            max(1, self.depth - 3), prefix="q")
        self.staging = f"{base}/_staging"
        self.output = f"{base}/output"
        system.bulk_load((self.staging, self.output))

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        if not self.staging:
            raise RuntimeError("setup() must run before client_ops()")
        for round_no in range(self.rounds):
            task_dir = f"{self.staging}/task{cid}_{round_no}"
            yield ("mkdir", (task_dir,))
            for part in range(self.parts_per_task):
                yield ("create", (f"{task_dir}/part-{part:05d}",))
            yield ("dirstat", (task_dir,))
            yield ("dirrename",
                   (task_dir, f"{self.output}/task{cid}_{round_no}"))

    def describe(self) -> str:
        return (f"spark-analytics clients={self.num_clients} "
                f"rounds={self.rounds} parts={self.parts_per_task}")

    @property
    def ops_per_client(self) -> int:
        return self.rounds * (3 + self.parts_per_task)
