"""Property test: TopDirPathCache is semantically transparent.

For any random directory tree and any sequence of lookups, a cached
IndexNodeState must return exactly the same (target id, permission) as an
uncached one — caching may only change the *cost*, never the answer.
Mutations interleave to exercise invalidation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetadataError
from repro.indexnode.state import IndexNodeState
from repro.types import ROOT_ID, AccessMeta, Permission


def grow_tree(state: IndexNodeState, rng: random.Random, num_dirs: int):
    """Randomly grow a directory tree; returns path -> id."""
    paths = {"/": ROOT_ID}
    next_id = 2
    for _ in range(num_dirs):
        parent = rng.choice(sorted(paths))
        name = f"d{next_id}"
        child = (parent.rstrip("/") or "") + "/" + name
        perm = rng.choice([Permission.ALL,
                           Permission.READ | Permission.EXECUTE])
        state.table.insert(AccessMeta(pid=paths[parent], name=name,
                                      id=next_id, permission=perm))
        paths[child] = next_id
        next_id += 1
    return paths


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4))
def test_cached_and_uncached_lookups_agree(seed, k):
    rng = random.Random(seed)
    cached = IndexNodeState(cache_k=k, cache_enabled=True)
    plain = IndexNodeState(cache_k=k, cache_enabled=False)
    paths_a = grow_tree(cached, random.Random(seed), 25)
    paths_b = grow_tree(plain, random.Random(seed), 25)
    assert paths_a == paths_b
    all_paths = sorted(p for p in paths_a if p != "/")
    for step in range(60):
        action = rng.random()
        if action < 0.75 or len(all_paths) < 2:
            # Lookup a random (possibly repeated) path in both states.
            path = rng.choice(all_paths)
            want = rng.choice(["dir", "parent"])
            try:
                got_cached = cached.lookup(path, want=want)
                got_plain = plain.lookup(path, want=want)
            except MetadataError:
                continue
            assert got_cached.target_id == got_plain.target_id, (path, want)
            assert got_cached.permission == got_plain.permission, (path, want)
        elif action < 0.9:
            # setperm on a random directory (invalidation path).
            path = rng.choice(all_paths)
            meta_path, name = path.rsplit("/", 1)
            pid = paths_a[meta_path or "/"]
            perm = rng.choice([Permission.ALL, Permission.READ,
                               Permission.READ | Permission.EXECUTE])
            command = ("setperm", pid, name, int(perm), path)
            assert cached.apply(command) == plain.apply(command)
        else:
            # Purge the cached state's Invalidator (background thread tick).
            cached.invalidator.purge_pending()
    # Final sweep: every path must agree exactly.
    cached.invalidator.purge_pending()
    for path in all_paths:
        a = cached.lookup(path, want="dir")
        b = plain.lookup(path, want="dir")
        assert (a.target_id, a.permission) == (b.target_id, b.permission)
