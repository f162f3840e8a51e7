"""Core data structures behind IndexNode and the baselines.

* :class:`~repro.structures.radix_tree.PrefixTree` — the Invalidator's radix
  tree over cached path prefixes (range queries for invalidation, §5.1.2).
* :class:`~repro.structures.lru.LRUCache` — AM-Cache for the InfiniFS
  baseline and the Figure 20 caching study.

The paper implements PrefixTree and the RemovalList lock-free in C++ so many
IndexNode threads can use them at once.  Here a replica applies commands and
answers lookups one at a time, so the lock-free property buys nothing: the
PrefixTree keeps the paper's interface and asymptotics (prefix range scans),
and the RemovalList is a plain set of paths plus a version counter on the
:class:`~repro.indexnode.invalidator.Invalidator`.
"""
