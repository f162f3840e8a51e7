"""Property-based tests for the Invalidator's coherence guarantees."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexnode.invalidator import Invalidator
from repro.indexnode.path_cache import TopDirPathCache
from repro.paths import is_prefix
from repro.types import Permission

_component = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3)
_path = st.lists(_component, min_size=1, max_size=5).map(
    lambda ps: "/" + "/".join(ps))

_action = st.one_of(
    st.tuples(st.just("cache"), _path),
    st.tuples(st.just("mark"), _path),
    st.tuples(st.just("unmark"), _path),
    st.tuples(st.just("purge"), st.just("")),
    st.tuples(st.just("rmdir"), _path),
)


class TestCoherenceInvariants:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_action, max_size=40))
    def test_no_cached_entry_survives_under_a_mark_after_purge(self, actions):
        """Whatever the interleaving, after a purge no cache entry lies
        under any path that was marked at purge time — the §5.1.2
        correctness condition."""
        cache = TopDirPathCache(k=2)
        inv = Invalidator(cache)
        dir_ids = iter(range(2, 10_000))
        for action, path in actions:
            if action == "cache":
                inv.try_cache(path, next(dir_ids), Permission.ALL,
                              inv.version)
            elif action == "mark":
                inv.mark_modifying(path)
            elif action == "unmark":
                inv.unmark(path)
            elif action == "rmdir":
                inv.on_rmdir(path)
            elif action == "purge":
                marked = sorted(inv.removal_list)
                inv.purge_pending()
                for mark in marked:
                    for prefix in list(cache._entries):
                        assert not is_prefix(mark, prefix), (mark, prefix)
        # Final purge drains everything.
        inv.purge_pending()
        assert not inv.removal_list

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_action, max_size=40))
    def test_tree_mirrors_cache_exactly(self, actions):
        """PrefixTree must always contain exactly the cached prefixes —
        otherwise range invalidation would miss (or over-purge) entries."""
        cache = TopDirPathCache(k=2)
        inv = Invalidator(cache)
        dir_ids = iter(range(2, 10_000))
        for action, path in actions:
            if action == "cache":
                inv.try_cache(path, next(dir_ids), Permission.ALL,
                              inv.version)
            elif action == "mark":
                inv.mark_modifying(path)
            elif action == "unmark":
                inv.unmark(path)
            elif action == "rmdir":
                inv.on_rmdir(path)
            elif action == "purge":
                inv.purge_pending()
            assert sorted(inv.prefix_tree.paths()) == sorted(cache._entries)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_path, min_size=1, max_size=15), _path)
    def test_blocked_lookup_iff_marked_prefix(self, marks, probe):
        cache = TopDirPathCache(k=2)
        inv = Invalidator(cache)
        for mark in marks:
            inv.mark_modifying(mark)
        expected = any(is_prefix(m, probe) for m in marks)
        assert (inv.blocking_modification(probe) is not None) == expected
