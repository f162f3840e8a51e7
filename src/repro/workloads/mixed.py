"""Mixed production-style workload: configurable op ratios + Zipf skew.

The paper's production namespaces serve mixed traffic — lookup-dominated
(peak lookup:mkdir ratios of 16-24:1 in Table 3) with access heavily
skewed toward a hot subset of deep paths (§3).  This workload generates
that mix: each client draws operations from a weighted distribution and
draws target objects from a Zipf-like popularity ranking.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.workloads.namespace import NamespaceSpec, populate

#: Default production-like mix (Table 3's lookup-heavy profile).
DEFAULT_MIX: Dict[str, float] = {
    "objstat": 0.62,
    "readdir": 0.08,
    "dirstat": 0.06,
    "create": 0.14,
    "delete": 0.04,
    "mkdir": 0.05,
    "rmdir": 0.01,
}

_SUPPORTED = set(DEFAULT_MIX)


def zipf_table(items: List, s: float = 1.1) -> Tuple[List, List[float]]:
    """``(items, cumulative Zipf(s) weights)``: the table a
    :class:`ZipfPicker` bisects.  ``items`` is held, not copied, so one
    table serves any number of pickers."""
    if not items:
        raise ValueError("need at least one item")
    if s < 0:
        raise ValueError("zipf exponent must be >= 0")
    weights = [1.0 / ((rank + 1) ** s) for rank in range(len(items))]
    return items, list(itertools.accumulate(weights))


class ZipfPicker:
    """Draws items with a Zipf(s) popularity distribution."""

    def __init__(self, items: List, s: float = 1.1, seed: int = 0):
        self._items, self._cumulative = zipf_table(list(items), s)
        self._rng = random.Random(seed)

    @classmethod
    def over(cls, table: Tuple[List, List[float]], seed: int
             ) -> "ZipfPicker":
        """A picker drawing from a shared :func:`zipf_table` with its own
        RNG; the same draws as ``ZipfPicker(items, s, seed)``."""
        picker = cls.__new__(cls)
        picker._items, picker._cumulative = table
        picker._rng = random.Random(seed)
        return picker

    def pick(self):
        point = self._rng.uniform(0.0, self._cumulative[-1])
        return self._items[bisect.bisect_left(self._cumulative, point)]


class MixedWorkload:
    """Weighted-mix operation streams over a synthetic namespace."""

    def __init__(self, spec: NamespaceSpec, num_clients: int = 16,
                 ops_per_client: int = 50,
                 mix: Dict[str, float] = None,
                 zipf_s: float = 1.1, seed: int = 17):
        self.spec = spec
        self.num_clients = num_clients
        self.ops_per_client = ops_per_client
        self.mix = dict(mix) if mix else dict(DEFAULT_MIX)
        unknown = set(self.mix) - _SUPPORTED
        if unknown:
            raise ValueError(f"unsupported ops in mix: {sorted(unknown)}")
        total = sum(self.mix.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.mix = {op: weight / total for op, weight in self.mix.items()}
        self.zipf_s = zipf_s
        self.seed = seed
        #: ``zipf_table`` of the objects and of the non-root directories,
        #: built once in :meth:`setup` and shared by every client's pickers.
        self._obj_table: Optional[Tuple[List, List[float]]] = None
        self._dir_table: Optional[Tuple[List, List[float]]] = None

    def setup(self, system) -> None:
        populate(system, self.spec)
        dirs = [d for d in self.spec.directories if d.count("/") > 1]
        objects = list(self.spec.objects)
        if not objects or not dirs:
            raise ValueError("namespace too small for a mixed workload")
        self._obj_table = zipf_table(objects, self.zipf_s)
        self._dir_table = zipf_table(dirs, self.zipf_s)

    def client_ops(self, cid: int) -> Iterator[Tuple[str, tuple]]:
        if self._obj_table is None:
            raise RuntimeError("setup() must run before client_ops()")
        rng = random.Random((self.seed << 20) ^ cid)
        obj_picker = ZipfPicker.over(self._obj_table,
                                     seed=(self.seed << 8) ^ cid)
        dir_picker = ZipfPicker.over(self._dir_table,
                                     seed=(self.seed << 8) ^ cid ^ 0x5A5A)
        ops = list(self.mix)
        weights = [self.mix[op] for op in ops]
        created: List[str] = []
        made_dirs: List[str] = []
        counter = 0
        for _ in range(self.ops_per_client):
            op = rng.choices(ops, weights)[0]
            counter += 1
            if op == "objstat":
                yield (op, (obj_picker.pick(),))
            elif op in ("readdir", "dirstat"):
                yield (op, (dir_picker.pick(),))
            elif op == "create":
                path = f"{dir_picker.pick()}/mx_{cid}_{counter}.bin"
                created.append(path)
                yield (op, (path,))
            elif op == "delete":
                if created:
                    yield (op, (created.pop(),))
                else:
                    yield ("objstat", (obj_picker.pick(),))
            elif op == "mkdir":
                path = f"{dir_picker.pick()}/mxd_{cid}_{counter}"
                made_dirs.append(path)
                yield (op, (path,))
            elif op == "rmdir":
                if made_dirs:
                    yield (op, (made_dirs.pop(),))
                else:
                    yield ("dirstat", (dir_picker.pick(),))

    def describe(self) -> str:
        mix = ", ".join(f"{op}:{w:.2f}" for op, w in sorted(self.mix.items()))
        return (f"mixed clients={self.num_clients} "
                f"ops={self.ops_per_client} zipf={self.zipf_s} [{mix}]")
