"""Production namespace profiles: Figure 3 (ns1–ns5) and Table 3 (C1–C5).

The paper publishes aggregate statistics of real Baidu namespaces; we carry
them as data and synthesise scaled namespaces matching each profile's
object ratio and depth distribution (DESIGN.md's substitution table:
production traces → synthetic equivalents preserving the published
statistics).
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, Optional, Tuple

from repro.workloads.namespace import NamespaceSpec, build_namespace


@dataclasses.dataclass(frozen=True)
class NamespaceProfile:
    """Published statistics of one production namespace."""

    name: str
    total_entries: float          # entries in the real namespace
    object_fraction: float        # objects / total entries
    mean_depth: float             # average access/path depth
    max_depth: int
    peak_lookup_kops: float = 0.0
    peak_mkdir_kops: float = 0.0
    small_object_fraction: float = 0.0

    def synthesize(self, scale_entries: int = 2000,
                   seed: Optional[int] = None) -> NamespaceSpec:
        """Build a scaled namespace matching this profile's shape.

        ``scale_entries`` is the approximate number of entries to generate;
        the object fraction and mean depth follow the profile.  Without a
        ``seed`` the tree is seeded from a digest of the profile's name,
        so it is the same in every process.
        """
        objects_per_dir = max(
            1, round(self.object_fraction / (1.0 - self.object_fraction)))
        num_dirs = max(1, int(scale_entries / (1 + objects_per_dir)))
        return build_namespace(
            num_dirs=num_dirs,
            objects_per_dir=objects_per_dir,
            mean_depth=self.mean_depth,
            max_depth=min(self.max_depth, 30),  # laptop-scale clip
            seed=(seed if seed is not None
                  else zlib.crc32(self.name.encode()) & 0xFFFF),
            root=f"/{self.name}")


#: Figure 3: five analysed namespaces.  All have > 2 B entries; objects are
#: 82.0–91.7 %; average access depths 11.6/11.5/10.8/10.6/11.9; max 95.
FIGURE3_PROFILES: Tuple[NamespaceProfile, ...] = (
    NamespaceProfile("ns1", 3.4e9, 0.917, 11.6, 95),
    NamespaceProfile("ns2", 2.9e9, 0.896, 11.5, 88),
    NamespaceProfile("ns3", 2.6e9, 0.860, 10.8, 71),
    NamespaceProfile("ns4", 4.1e9, 0.820, 10.6, 95),
    NamespaceProfile("ns5", 2.2e9, 0.884, 11.9, 64),
)

#: Table 3: Cluster-C namespaces with peak production throughput.
TABLE3_PROFILES: Tuple[NamespaceProfile, ...] = (
    NamespaceProfile("C1", 3.2e9 + 27e6, 3.2e9 / (3.2e9 + 27e6), 11.0, 60,
                     peak_lookup_kops=400, peak_mkdir_kops=24,
                     small_object_fraction=0.620),
    NamespaceProfile("C2", 2.1e9 + 194e6, 2.1e9 / (2.1e9 + 194e6), 11.0, 60,
                     peak_lookup_kops=300, peak_mkdir_kops=12,
                     small_object_fraction=0.292),
    NamespaceProfile("C3", 1.2e9 + 145e6, 1.2e9 / (1.2e9 + 145e6), 11.0, 60,
                     peak_lookup_kops=350, peak_mkdir_kops=18,
                     small_object_fraction=0.337),
    NamespaceProfile("C4", 0.8e9 + 88e6, 0.8e9 / (0.8e9 + 88e6), 11.0, 60,
                     peak_lookup_kops=175, peak_mkdir_kops=11,
                     small_object_fraction=0.288),
    NamespaceProfile("C5", 75e6 + 9e6, 75e6 / (75e6 + 9e6), 11.0, 60,
                     peak_lookup_kops=215, peak_mkdir_kops=9,
                     small_object_fraction=0.281),
)


def profile_by_name(name: str) -> NamespaceProfile:
    for profile in FIGURE3_PROFILES + TABLE3_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown namespace profile {name!r}")


def depth_cdf(spec: NamespaceSpec) -> Dict[int, float]:
    """Cumulative fraction of entries at or below each depth (Figure 3b)."""
    histogram = spec.depth_histogram()
    total = sum(histogram.values())
    out: Dict[int, float] = {}
    running = 0
    for depth in sorted(histogram):
        running += histogram[depth]
        out[depth] = running / total
    return out
