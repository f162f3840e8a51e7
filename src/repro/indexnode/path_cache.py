"""TopDirPathCache — the static truncate-k prefix cache (§5.1.1).

Maps a *truncated* path prefix (the full path minus its final ``k``
components) to the resolved directory id and the Lazy-Hybrid aggregated
permission of that prefix.  Deliberately not an LRU: entries are only ever
inserted after a full resolution and removed by the Invalidator; there is no
runtime promotion/demotion, which is the design point that keeps maintenance
cheap.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.types import Permission


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """Resolution result for one cached prefix."""

    dir_id: int
    permission: Permission


class TopDirPathCache:
    """Hash map from truncated path prefixes to resolution results.

    ``k`` is the distance from the leaf below which paths are never cached;
    resolving a depth-N path consults the cache for the first N-k
    components.  Production uses k=3 (Figure 18).
    """

    #: Estimated bytes per entry for the Figure 18 memory comparison:
    #: key string + id + permission + hash-table overhead.
    ENTRY_OVERHEAD_BYTES = 48

    def __init__(self, k: int = 3, enabled: bool = True):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.enabled = enabled
        self._entries: Dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._entries

    def copy(self) -> "TopDirPathCache":
        """Independent cache sharing the (frozen) entries."""
        twin = TopDirPathCache(self.k, self.enabled)
        twin._entries = dict(self._entries)
        twin.hits, twin.misses = self.hits, self.misses
        twin.inserts, twin.invalidations = self.inserts, self.invalidations
        return twin

    def prefix_depth(self, depth: int) -> int:
        """How many leading components of a depth-``depth`` path key this
        cache: ``depth - k``, or 0 when the path is within k levels of the
        root (or the cache is off)."""
        if not self.enabled:
            return 0
        return max(0, depth - self.k)

    def probe(self, prefix: str) -> Optional[CacheEntry]:
        entry = self._entries.get(prefix)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, prefix: str, dir_id: int, permission: Permission) -> None:
        if not self.enabled:
            return
        if prefix == "/":
            return  # the root never needs caching
        self._entries[prefix] = CacheEntry(dir_id, permission)
        self.inserts += 1

    def remove(self, prefix: str) -> bool:
        if self._entries.pop(prefix, None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    @property
    def memory_bytes(self) -> int:
        return sum(len(prefix) + self.ENTRY_OVERHEAD_BYTES
                   for prefix in self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
