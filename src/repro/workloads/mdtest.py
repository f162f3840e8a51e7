"""mdtest-style per-operation workloads (§6.3).

One workload = one operation exercised by N clients at a fixed path depth
(the paper uses an average depth of 10).  Conflict modes:

* ``exclusive`` ('-e'): every client works in its own directory;
* ``shared`` ('-s'): every client targets the same shared directory —
  distinct entry names, but one contended parent attribute row (the Spark
  commit pattern of §3.2).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.workloads.namespace import ensure_chain

_MODES = ("exclusive", "shared")
#: Every operation the workload can exercise (``mantle-exp explain`` accepts
#: each as a bare target).
OPS = ("create", "delete", "objstat", "dirstat", "readdir",
       "mkdir", "rmdir", "dirrename")


class MdtestWorkload:
    """Generator of per-client operation streams for one mdtest op.

    Parameters mirror mdtest: ``depth`` is the path depth of the working
    directories, ``items`` the number of operations per client.
    """

    def __init__(self, op: str, mode: str = "exclusive", depth: int = 10,
                 items: int = 50, num_clients: int = 8, root: str = "/mdtest"):
        if op not in OPS:
            raise ValueError(f"unsupported mdtest op {op!r}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if depth < 2:
            raise ValueError("depth must be >= 2")
        self.op = op
        self.mode = mode
        self.depth = depth
        self.items = items
        self.num_clients = num_clients
        self.root = root
        self._client_dirs: List[str] = []
        self._shared_dir = ""

    # -- setup ------------------------------------------------------------------

    def setup(self, system) -> None:
        """Pre-populate working directories (and victims for read/delete
        ops), mirroring the paper's mdtest pre-fill."""
        self._client_dirs = []
        # Working dirs sit at depth-1 so entries inside them are at `depth`.
        for cid in range(self.num_clients):
            base = ensure_chain(system, f"{self.root}/c{cid}",
                                self.depth - 3, prefix="l")
            self._client_dirs.append(base)
        self._shared_dir = ensure_chain(system, f"{self.root}/shared",
                                        self.depth - 3, prefix="l")
        dirs: List[str] = []
        objects: List[str] = []
        for cid in range(self.num_clients):
            target = self._target_dir(cid)
            if self.op in ("objstat", "delete", "readdir"):
                objects += [self._obj_path(cid, i) for i in range(self.items)]
            if self.op == "dirstat":
                dirs += [f"{target}/st{cid}_{i}" for i in range(self.items)]
            if self.op == "rmdir":
                dirs += [f"{target}/rm{cid}_{i}" for i in range(self.items)]
            if self.op == "dirrename":
                src_base = f"{self._client_dirs[cid]}/src"
                dirs.append(src_base)
                if self.mode == "exclusive":
                    dirs.append(f"{self._client_dirs[cid]}/dst")
                dirs += [f"{src_base}/mv{cid}_{i}" for i in range(self.items)]
        system.bulk_load(dirs, objects)

    def _target_dir(self, cid: int) -> str:
        return (self._shared_dir if self.mode == "shared"
                else self._client_dirs[cid])

    def _obj_path(self, cid: int, i: int) -> str:
        return f"{self._target_dir(cid)}/o{cid}_{i}.bin"

    # -- op streams ------------------------------------------------------------------

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        """Yield (op, args) pairs for client ``cid``."""
        if not self._client_dirs:
            raise RuntimeError("setup() must run before client_ops()")
        target = self._target_dir(cid)
        if self.op == "create":
            for i in range(self.items):
                yield ("create", (f"{target}/n{cid}_{i}.bin",))
        elif self.op == "delete":
            for i in range(self.items):
                yield ("delete", (self._obj_path(cid, i),))
        elif self.op == "objstat":
            for i in range(self.items):
                yield ("objstat", (self._obj_path(cid, i),))
        elif self.op == "dirstat":
            for i in range(self.items):
                yield ("dirstat", (f"{target}/st{cid}_{i}",))
        elif self.op == "readdir":
            for _ in range(self.items):
                yield ("readdir", (target,))
        elif self.op == "mkdir":
            for i in range(self.items):
                yield ("mkdir", (f"{target}/mk{cid}_{i}",))
        elif self.op == "rmdir":
            for i in range(self.items):
                yield ("rmdir", (f"{target}/rm{cid}_{i}",))
        elif self.op == "dirrename":
            src_base = f"{self._client_dirs[cid]}/src"
            dst_base = (self._shared_dir if self.mode == "shared"
                        else f"{self._client_dirs[cid]}/dst")
            for i in range(self.items):
                yield ("dirrename",
                       (f"{src_base}/mv{cid}_{i}", f"{dst_base}/mv{cid}_{i}"))
        else:  # pragma: no cover
            raise AssertionError(self.op)

    def describe(self) -> str:
        suffix = "-s" if self.mode == "shared" else "-e"
        return f"mdtest {self.op}{suffix} depth={self.depth} items={self.items}"
