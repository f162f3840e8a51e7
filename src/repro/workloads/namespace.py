"""Synthetic namespace generation with the paper's §3 shape.

Real BOS namespaces are billion-scale with an *average* directory depth
around 11 and maxima up to 95.  The generator reproduces the shape at an
adjustable scale: directory chains whose depths follow a clipped lognormal
distribution, leaf directories holding most of the objects (10:1
object-to-directory ratio by default, §6.1).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List


@dataclasses.dataclass
class NamespaceSpec:
    """A generated namespace: every directory and object path."""

    directories: List[str]
    objects: List[str]
    seed: int

    @property
    def total_entries(self) -> int:
        return len(self.directories) + len(self.objects)

    @property
    def object_ratio(self) -> float:
        if not self.total_entries:
            return 0.0
        return len(self.objects) / self.total_entries

    def depth_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for path in self.directories + self.objects:
            depth = path.count("/")
            histogram[depth] = histogram.get(depth, 0) + 1
        return dict(sorted(histogram.items()))

    def average_depth(self) -> float:
        if not self.total_entries:
            return 0.0
        total = sum(p.count("/") for p in self.directories + self.objects)
        return total / self.total_entries

    def max_depth(self) -> int:
        if not self.total_entries:
            return 0
        return max(p.count("/") for p in self.directories + self.objects)


def _sample_depth(rng: random.Random, mean_depth: float, max_depth: int) -> int:
    """Clipped lognormal depth sample centred on ``mean_depth``."""
    sigma = 0.35
    mu = math.log(mean_depth) - sigma * sigma / 2.0
    depth = int(round(rng.lognormvariate(mu, sigma)))
    return max(2, min(depth, max_depth))


def build_namespace(num_dirs: int = 200, objects_per_dir: int = 10,
                    mean_depth: float = 11.0, max_depth: int = 24,
                    branching: int = 4, seed: int = 1234,
                    root: str = "/ns") -> NamespaceSpec:
    """Generate a namespace with roughly ``num_dirs`` directories.

    The tree is grown as a set of trunks: each trunk is a chain of
    directories to a sampled depth, re-using existing prefixes (``branching``
    controls how many names exist per level, so trunks overlap and form a
    tree rather than disjoint chains).  Objects are placed in the deepest
    (leaf) directory of each trunk, matching the paper's observation that
    access is skewed toward deep levels.
    """
    if num_dirs < 1:
        raise ValueError("need at least one directory")
    rng = random.Random(seed)
    directories: List[str] = []
    seen = set()

    def add_dir(path: str) -> None:
        if path not in seen:
            seen.add(path)
            directories.append(path)

    add_dir(root)
    # Phase 1: grow the directory tree as overlapping trunks.
    leaves: List[str] = []
    trunk = 0
    while len(directories) < num_dirs:
        trunk += 1
        depth = _sample_depth(rng, mean_depth, max_depth)
        path = root
        for level in range(depth - 1):  # root already contributes one level
            name = f"d{rng.randrange(branching)}_{level}"
            path = f"{path}/{name}"
            add_dir(path)
            if len(directories) >= num_dirs:
                break
        leaves.append(path)
    if not leaves:
        leaves.append(root)  # num_dirs == 1: objects go in the root
    # Phase 2: distribute objects across trunk leaves to hit the target
    # object-to-directory ratio (objects live deep, §3).
    objects: List[str] = []
    total_objects = num_dirs * objects_per_dir
    for i in range(total_objects):
        leaf = leaves[i % len(leaves)]
        objects.append(f"{leaf}/obj_{i}.bin")
    return NamespaceSpec(directories=directories, objects=objects, seed=seed)


def populate(system, spec: NamespaceSpec) -> None:
    """Bulk-load a generated namespace into any MetadataSystem.

    Mirrors the paper's mdtest pre-fill ("we use mdtest to populate each
    system with data... prior to running experiments"), but without
    simulated cost so benchmark setup stays cheap.
    """
    system.bulk_load(sorted(spec.directories, key=lambda p: p.count("/")),
                     spec.objects)


def deep_chain(root: str, depth: int, prefix: str = "l") -> List[str]:
    """A single directory chain ``root/l1/l2/.../l<depth>`` (all paths)."""
    paths = []
    path = root
    for level in range(1, depth + 1):
        path = f"{path}/{prefix}{level}"
        paths.append(path)
    return paths


def ensure_chain(system, root: str, depth: int, prefix: str = "l") -> str:
    """Bulk-create ``root`` and a chain below it; returns the deepest
    directory."""
    parts = root.strip("/").split("/") if root != "/" else []
    paths = ["/" + "/".join(parts[:i]) for i in range(1, len(parts) + 1)]
    paths += deep_chain(root if root != "/" else "", depth, prefix)
    system.bulk_load(paths)
    return paths[-1] if paths else "/"
