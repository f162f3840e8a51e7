"""The measurement record simulated and live repetitions share."""

from __future__ import annotations

import dataclasses
from typing import Dict, List


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclasses.dataclass
class Rep:
    """One repetition: host-time measurements, the service's own numbers
    (simulated clock on ``sim_*``, wall clock on ``live_mixed``), layer
    counts, and whatever the correctness gate found."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    svc_kops: float = 0.0
    svc_p50_us: float = 0.0
    svc_p99_us: float = 0.0
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    @property
    def done(self) -> int:
        return self.attempted - self.failed

    def fingerprint(self) -> tuple:
        """Simulated quantities that repeat bit-for-bit for one seed."""
        return (self.svc_kops, self.svc_p50_us, self.svc_p99_us,
                self.layer["sim.rpcs_per_op"], self.layer["tafdb.commits"])
