"""Radix (prefix) tree over path components.

The Invalidator (§5.1.2) rebuilds the directory tree of every path cached in
TopDirPathCache so that a directory modification can find *all* cached
descendants with one range query — something the flat hash table underlying
the cache cannot do.  Keys are absolute paths; edges are path components.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.paths import split_path


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: Dict[str, _Node] = {}
        self.terminal = False


class PrefixTree:
    """Set of absolute paths supporting subtree (descendant) queries.

    >>> t = PrefixTree()
    >>> t.insert("/a/b")
    True
    >>> t.insert("/a/b/c")
    True
    >>> sorted(t.descendants("/a"))
    ['/a/b', '/a/b/c']
    """

    def __init__(self):
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, path: str) -> bool:
        node = self._walk(path)
        return node is not None and node.terminal

    def copy(self) -> "PrefixTree":
        twin = PrefixTree()
        twin._size = self._size
        stack = [(self._root, twin._root)]
        while stack:
            src, dst = stack.pop()
            dst.terminal = src.terminal
            for name, child in src.children.items():
                dst.children[name] = node = _Node()
                stack.append((child, node))
        return twin

    def _walk(self, path: str) -> Optional[_Node]:
        node = self._root
        for part in split_path(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def insert(self, path: str) -> bool:
        """Add ``path``; returns False if it was already present."""
        node = self._root
        for part in split_path(path):
            nxt = node.children.get(part)
            if nxt is None:
                nxt = _Node()
                node.children[part] = nxt
            node = nxt
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def remove(self, path: str) -> bool:
        """Remove ``path``; returns False if absent.  Prunes empty branches."""
        parts = split_path(path)
        spine: List[tuple] = []
        node = self._root
        for part in parts:
            nxt = node.children.get(part)
            if nxt is None:
                return False
            spine.append((node, part))
            node = nxt
        if not node.terminal:
            return False
        node.terminal = False
        self._size -= 1
        # Prune nodes that hold no entries and no children.
        for parent, part in reversed(spine):
            child = parent.children[part]
            if child.terminal or child.children:
                break
            del parent.children[part]
        return True

    def descendants(self, prefix: str) -> Iterator[str]:
        """Yield every stored path equal to or underneath ``prefix``.

        This is the invalidation range query: dirrename on ``prefix``
        invalidates exactly these cache entries.
        """
        parts = split_path(prefix)
        node = self._walk(prefix)
        if node is None:
            return
        stack = [(node, parts)]
        while stack:
            current, comps = stack.pop()
            if current.terminal:
                yield "/" + "/".join(comps)
            # Reverse-sorted push so iteration yields lexicographic order.
            for name in sorted(current.children, reverse=True):
                stack.append((current.children[name], comps + [name]))

    def remove_subtree(self, prefix: str) -> List[str]:
        """Remove and return every path under (and including) ``prefix``."""
        victims = list(self.descendants(prefix))
        for victim in victims:
            self.remove(victim)
        return victims

    def paths(self) -> Iterator[str]:
        """Iterate every stored path (lexicographic component order)."""
        return self.descendants("/")
