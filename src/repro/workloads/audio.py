"""AI audio preprocessing workload (§6.2: 'Audio').

Long audio inputs are split into seconds-long segments; preprocessing tasks
scan existing input objects along deep paths and create output segment
objects in per-task directories.  All operations are conflict-free — the
workload isolates *path-resolution* performance, which is why it is the
figure of merit for TopDirPathCache and follower reads.

One simulated client = one preprocessing task:

1. ``readdir`` its input shard directory,
2. ``objstat`` each input segment (deep paths),
3. ``create`` the processed output segments in its own output directory.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.workloads.namespace import ensure_chain


class AudioPreprocessWorkload:
    """Deep-path scan + segment creation, no shared-directory conflicts."""

    def __init__(self, num_clients: int = 16, segments: int = 12,
                 depth: int = 11, root: str = "/audio"):
        if segments < 1:
            raise ValueError("segments >= 1 required")
        self.num_clients = num_clients
        self.segments = segments
        self.depth = depth
        self.root = root
        self._input_dirs = []
        self._output_dirs = []

    def setup(self, system) -> None:
        self._input_dirs = []
        self._output_dirs = []
        for cid in range(self.num_clients):
            input_dir = ensure_chain(system, f"{self.root}/in/shard{cid}",
                                     max(1, self.depth - 4), prefix="seg")
            system.bulk_load((), [f"{input_dir}/raw_{cid}_{i}.wav"
                                  for i in range(self.segments)],
                             size=256 * 1024)
            output_dir = ensure_chain(system, f"{self.root}/out/task{cid}",
                                      max(1, self.depth - 4), prefix="seg")
            self._input_dirs.append(input_dir)
            self._output_dirs.append(output_dir)

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        if not self._input_dirs:
            raise RuntimeError("setup() must run before client_ops()")
        input_dir = self._input_dirs[cid % len(self._input_dirs)]
        output_dir = self._output_dirs[cid % len(self._output_dirs)]
        yield ("readdir", (input_dir,))
        for i in range(self.segments):
            yield ("objstat", (f"{input_dir}/raw_{cid}_{i}.wav",))
        for i in range(self.segments):
            yield ("create", (f"{output_dir}/proc_{cid}_{i}.flac",))

    def describe(self) -> str:
        return (f"audio-preprocess clients={self.num_clients} "
                f"segments={self.segments} depth={self.depth}")

    @property
    def ops_per_client(self) -> int:
        return 1 + 2 * self.segments
