"""The Invalidator: cache invalidation for TopDirPathCache (§5.1.2).

Two auxiliary structures keep TopDirPathCache coherent with directory
modifications:

* **PrefixTree** (radix tree) mirrors the directory tree of every cached
  prefix so a modification can find all affected cache entries with one
  range query;
* **RemovalList** records full paths of directories currently being
  modified; lookups consult it first (Figure 7 step 1) and bypass the cache
  when a modified path prefixes theirs.

The RemovalList is the set of paths under modification plus a version.
The paper keeps it in a lock-free skip list so many IndexNode threads can
probe and change it at once; here a replica applies commands and answers
lookups one at a time, so a plain set does the job.  The version is the
"conventional timestamp mechanism" lookups use to decide whether their
freshly-resolved prefix may still be cached: a mark always bumps it, an
unmark only when the path was marked, a drain only when the list was not
empty.

A background loop periodically drains the RemovalList (in sorted path
order), queries PrefixTree for each affected range, and removes the entries
from the cache.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.indexnode.path_cache import TopDirPathCache
from repro.paths import ancestors
from repro.structures.radix_tree import PrefixTree


class Invalidator:
    """Coordinates lookups and directory modifications for one replica."""

    def __init__(self, cache: TopDirPathCache):
        self.cache = cache
        self.prefix_tree = PrefixTree()
        self.removal_list: Set[str] = set()
        self.version = 0
        self.purged_entries = 0
        self.purge_rounds = 0

    def copy(self, cache: TopDirPathCache) -> "Invalidator":
        """Independent Invalidator bound to ``cache`` (a copy of ours)."""
        twin = Invalidator(cache)
        twin.prefix_tree = self.prefix_tree.copy()
        twin.removal_list = set(self.removal_list)
        twin.version = self.version
        twin.purged_entries = self.purged_entries
        twin.purge_rounds = self.purge_rounds
        return twin

    # -- lookup-side hooks (Figure 7) -------------------------------------------

    def blocking_modification(self, path: str) -> Optional[str]:
        """Step 1 of the lookup workflow: return a path under modification
        that is ``path`` or one of its ancestors (lookup must then bypass
        the cache).  With the list empty "most of the time" (§5.1.2) this
        is a single test."""
        marked = self.removal_list
        if not marked:
            return None
        for candidate in ancestors(path) + [path]:
            if candidate in marked:
                return candidate
        return None

    def try_cache(self, prefix: str, dir_id: int, permission,
                  version_before: int) -> bool:
        """Cache a freshly-resolved prefix if it is safe (§5.1.2 conditions:
        not already cached, and no modification raced the resolution)."""
        if prefix in self.cache:
            return False
        if self.version != version_before:
            return False
        if self.blocking_modification(prefix) is not None:
            return False
        self.cache.insert(prefix, dir_id, permission)
        self.prefix_tree.insert(prefix)
        return True

    # -- modification-side hooks ---------------------------------------------------

    def mark_modifying(self, path: str) -> None:
        """Record that ``path`` (and so its subtree) is being modified."""
        self.removal_list.add(path)
        self.version += 1

    def unmark(self, path: str) -> None:
        """Withdraw a mark without purging (aborted rename: nothing changed)."""
        if path in self.removal_list:
            self.removal_list.remove(path)
            self.version += 1

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
        if not self.removal_list:
            return 0
        marked = sorted(self.removal_list)
        self.removal_list.clear()
        self.version += 1
        self.purge_rounds += 1
        removed = 0
        for path in marked:
            for victim in self.prefix_tree.remove_subtree(path):
                if self.cache.remove(victim):
                    removed += 1
        self.purged_entries += removed
        return removed
