"""Probabilistic skiplist — the ordered set behind RemovalList (§5.1.2).

RemovalList records the full paths of directories currently being modified.
Lookups consult it on every request ("is any path being modified a prefix of
the path I'm resolving?"), so membership probes must be cheap; the paper
uses a lock-free skiplist, we use the classic probabilistic one with a
global version counter standing in for the timestamp conflict-detection
mechanism.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

from repro.paths import ancestors

_MAX_LEVEL = 16
_P = 0.5


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Optional[str], value: Any, level: int):
        self.key = key
        self.value = value
        self.forward: List[Optional[_SkipNode]] = [None] * level


class SkipList:
    """Ordered string-keyed map with O(log n) expected operations.

    ``version`` increments on every mutation; readers snapshot it before a
    lookup and re-check afterwards to detect concurrent modification — the
    "conventional timestamp mechanism" used to decide whether a resolved
    prefix may be cached (§5.1.2).
    """

    def __init__(self, seed: int = 42):
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._rng = random.Random(seed)
        self.version = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: str) -> bool:
        return self._search(key) is not None

    def copy(self) -> "SkipList":
        """Same keys, values and version; tower heights are redrawn (they
        shape cost, never results)."""
        twin = SkipList()
        for key, value in self.items():
            twin.insert(key, value)
        twin.version = self.version
        return twin

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: str) -> List[_SkipNode]:
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            while node.forward[lvl] is not None and node.forward[lvl].key < key:
                node = node.forward[lvl]
            update[lvl] = node
        return update

    def insert(self, key: str, value: Any = True) -> bool:
        """Insert or overwrite; returns True if the key was new."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        self.version += 1
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return False
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _SkipNode(key, value, level)
        for lvl in range(level):
            node.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = node
        self._size += 1
        return True

    def remove(self, key: str) -> bool:
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is None or candidate.key != key:
            return False
        self.version += 1
        for lvl in range(len(candidate.forward)):
            if update[lvl].forward[lvl] is candidate:
                update[lvl].forward[lvl] = candidate.forward[lvl]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._size -= 1
        return True

    def _search(self, key: str) -> Optional[_SkipNode]:
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            while node.forward[lvl] is not None and node.forward[lvl].key < key:
                node = node.forward[lvl]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node
        return None

    def get(self, key: str, default: Any = None) -> Any:
        node = self._search(key)
        return node.value if node is not None else default

    def items(self) -> Iterator[Tuple[str, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def keys(self) -> Iterator[str]:
        for key, _value in self.items():
            yield key

    def pop_all(self) -> List[Tuple[str, Any]]:
        """Atomically drain every entry (the Invalidator's periodic poll)."""
        out = list(self.items())
        if out:
            self.version += 1
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        return out

    # -- RemovalList-specific helpers --------------------------------------

    def contains_prefix_of(self, path: str) -> Optional[str]:
        """Return a stored key that is ``path`` or one of its ancestors.

        This is the step (1) scan of the lookup workflow (Figure 7): if any
        directory being modified prefixes the requested path, the lookup must
        bypass TopDirPathCache.  Cost is O(depth x log n); with the list
        empty "most of the time" (§5.1.2) the fast path is a single probe.
        """
        if self._size == 0:
            return None
        for candidate in ancestors(path) + [path]:
            if candidate in self:
                return candidate
        return None
