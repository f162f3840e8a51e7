"""IndexNode — Mantle's per-namespace directory index (§4, §5).

An IndexNode consolidates the *access metadata* of every directory in one
namespace (~80 bytes per directory) so that path resolution becomes a single
RPC.  The package splits along the paper's Figure 6/7:

* :mod:`~repro.indexnode.index_table` — the IndexTable keyed (pid, dirname),
  with lock bits for rename coordination;
* :mod:`~repro.indexnode.path_cache` — TopDirPathCache, the static
  truncate-k prefix cache (§5.1.1);
* :mod:`~repro.indexnode.invalidator` — the Invalidator with its PrefixTree
  and RemovalList (§5.1.2);
* :mod:`~repro.indexnode.state` — the replicated state machine (applied by
  every Raft replica);
* :mod:`~repro.indexnode.server` — the RPC surface (lookup, rename
  preparation with loop detection, mutation proposals), including
  follower/learner lookups (§5.1.3).
"""
