"""The Invalidator: lock-free-style cache invalidation (§5.1.2).

Two auxiliary structures keep TopDirPathCache coherent with directory
modifications:

* **PrefixTree** (radix tree) mirrors the directory tree of every cached
  prefix so a modification can find all affected cache entries with one
  range query;
* **RemovalList** (skiplist) records full paths of directories currently
  being modified; lookups consult it first (Figure 7 step 1) and bypass the
  cache when a modified path prefixes theirs.

A background thread periodically drains RemovalList, queries PrefixTree for
the affected range, and removes the entries from the cache.  The skiplist's
version counter provides the "conventional timestamp mechanism" lookups use
to decide whether their freshly-resolved prefix may still be cached.
"""

from __future__ import annotations

from typing import List, Optional

from repro.indexnode.path_cache import TopDirPathCache
from repro.paths import is_prefix
from repro.structures.radix_tree import PrefixTree
from repro.structures.skiplist import SkipList


class Invalidator:
    """Coordinates lookups and directory modifications for one replica."""

    def __init__(self, cache: TopDirPathCache):
        self.cache = cache
        self.prefix_tree = PrefixTree()
        self.removal_list = SkipList()
        self.purged_entries = 0
        self.purge_rounds = 0

    def copy(self, cache: TopDirPathCache) -> "Invalidator":
        """Independent Invalidator bound to ``cache`` (a copy of ours)."""
        twin = Invalidator(cache)
        twin.prefix_tree = self.prefix_tree.copy()
        twin.removal_list = self.removal_list.copy()
        twin.purged_entries = self.purged_entries
        twin.purge_rounds = self.purge_rounds
        return twin

    # -- lookup-side hooks (Figure 7) -------------------------------------------

    def blocking_modification(self, path: str) -> Optional[str]:
        """Step 1 of the lookup workflow: return a path under modification
        that prefixes ``path`` (lookup must then bypass the cache)."""
        return self.removal_list.contains_prefix_of(path)

    def version(self) -> int:
        """Snapshot for the timestamp conflict check around a resolution."""
        return self.removal_list.version

    def try_cache(self, prefix: str, dir_id: int, permission,
                  version_before: int) -> bool:
        """Cache a freshly-resolved prefix if it is safe (§5.1.2 conditions:
        not already cached, and no modification raced the resolution)."""
        if prefix in self.cache:
            return False
        if self.removal_list.version != version_before:
            return False
        if self.removal_list.contains_prefix_of(prefix) is not None:
            return False
        self.cache.insert(prefix, dir_id, permission)
        self.prefix_tree.insert(prefix)
        return True

    # -- modification-side hooks ---------------------------------------------------

    def mark_modifying(self, path: str) -> None:
        """Record that ``path`` (and so its subtree) is being modified."""
        self.removal_list.insert(path, True)

    def unmark(self, path: str) -> None:
        """Withdraw a mark without purging (aborted rename: nothing changed)."""
        self.removal_list.remove(path)

    def on_rmdir(self, path: str) -> None:
        """rmdir needs no RemovalList entry (§5.1.2: an empty directory
        cannot prefix an existing one) — only its own cached prefix entry,
        if any, must go."""
        if self.prefix_tree.remove(path):
            self.cache.remove(path)
            self.purged_entries += 1

    # -- background purge ------------------------------------------------------------

    def purge_pending(self) -> int:
        """Drain RemovalList and invalidate every affected cache range.

        Returns the number of cache entries removed.  This is the body of
        the Invalidator's background execution thread.
        """
        marked = self.removal_list.pop_all()
        if not marked:
            return 0
        self.purge_rounds += 1
        removed = 0
        for path, _flag in marked:
            for victim in self.prefix_tree.remove_subtree(path):
                if self.cache.remove(victim):
                    removed += 1
        self.purged_entries += removed
        return removed

    # -- introspection ------------------------------------------------------------------

    def pending_paths(self) -> List[str]:
        return list(self.removal_list.keys())

    def cached_under(self, prefix: str) -> List[str]:
        return [p for p in self.prefix_tree.descendants(prefix)
                if is_prefix(prefix, p)]
