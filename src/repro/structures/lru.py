"""Bounded LRU cache with hit/miss accounting.

Used by the InfiniFS baseline's AM-Cache (access-metadata cache) and by the
Figure 20 "adding metadata caching" study.  Mantle's own TopDirPathCache is
deliberately *not* an LRU — the paper's point is that a static, truncate-k
prefix cache avoids promotion/demotion churn — so that lives separately in
:mod:`repro.indexnode.path_cache`.
"""

from __future__ import annotations

import collections
from typing import Any, Iterator, Optional, Tuple


class LRUCache:
    """Classic move-to-front LRU with a hard capacity."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "collections.OrderedDict[Any, Any]" = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def put(self, key: Any, value: Any) -> Optional[Tuple[Any, Any]]:
        """Insert/update; returns the evicted (key, value) pair if any."""
        evicted = None
        if key in self._data:
            self._data.move_to_end(key)
        elif len(self._data) >= self.capacity:
            evicted = self._data.popitem(last=False)
            self.evictions += 1
        self._data[key] = value
        return evicted

    def invalidate(self, key: Any) -> bool:
        if key in self._data:
            del self._data[key]
            return True
        return False

    def invalidate_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns count."""
        victims = [k for k in self._data if predicate(k)]
        for key in victims:
            del self._data[key]
        return len(victims)

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(list(self._data.items()))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
