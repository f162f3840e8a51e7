"""The layer map and the cProfile fold that attributes host time to it.

Every ``.py`` file under ``src/repro`` belongs to exactly one layer;
anything outside that tree (stdlib, builtins) is ``other``, so time
leaking out of the map stays visible as ``other.share``.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
LEDGER = Path(__file__).resolve().parent

#: layer -> paths relative to ``src/repro``; a trailing "/" is a prefix.
LAYERS: Dict[str, List[str]] = {
    "sim.kernel": ["sim/__init__.py", "sim/core.py", "sim/resources.py"],
    "sim.hostnet": ["sim/host.py", "sim/network.py"],
    "obs": ["sim/stats.py", "sim/trace.py", "sim/telemetry.py",
            "sim/profile.py", "sim/critpath.py"],
    "runtime": ["runtime/"],
    "raft": ["raft/"],
    "tafdb": ["tafdb/"],
    "indexnode": ["indexnode/"],
    "core": ["core/"],
    "baselines": ["baselines/"],
    "structures": ["structures/"],
    "workloads": ["workloads/", "bench/", "experiments/", "tools/"],
    "types": ["__init__.py", "types.py", "paths.py", "ops.py", "errors.py"],
}
OTHER = "other"
LAYER_NAMES = list(LAYERS) + [OTHER]

#: A fold whose self-times miss the profiled wall time by more than this
#: share is reported as broken.
FOLD_TOLERANCE = 0.05


def _matches(rel: str) -> List[str]:
    return [layer for layer, rules in LAYERS.items()
            if any(rel.startswith(rule) if rule.endswith("/") else rel == rule
                   for rule in rules)]


def layer_map_problems() -> List[str]:
    """Files under ``src/repro`` that map to no layer or to several."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found = _matches(rel)
        if len(found) != 1:
            problems.append(
                f"layer map: src/repro/{rel} maps to "
                f"{found if found else 'no layer'}")
    return problems


def layer_of(filename: str) -> str:
    """Layer of one profiled code object's file name."""
    path = Path(filename)
    if SRC in path.parents:
        found = _matches(path.relative_to(SRC).as_posix())
        return found[0] if len(found) == 1 else OTHER
    if LEDGER in path.parents:
        return "workloads"  # the load generator's own op streams
    return OTHER


def fold_profile(profile, ops: int, wall_s: float,
                 problems: List[str]) -> Dict[str, float]:
    """Fold one cProfile run into ``<layer>.share`` / ``.calls_per_op``.

    Every generator resume is a call into its layer, which is what the
    profiler times, so a layer's ``tottime`` sum is its self-time.
    """
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    cache: Dict[str, str] = {}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profile).stats.items():
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_s.values())
    if wall_s <= 0 or abs(total - wall_s) > FOLD_TOLERANCE * wall_s:
        problems.append(
            f"profile fold broken: self-times sum to {total:.3f}s against "
            f"{wall_s:.3f}s profiled wall")
    out = {"profile.self_us_per_op": total / ops * 1e6}
    for layer in LAYER_NAMES:
        out[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    return out
