"""Unit + property tests for the Invalidator's PrefixTree."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.radix_tree import PrefixTree

_component = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
_path = st.lists(_component, min_size=1, max_size=6).map(lambda ps: "/" + "/".join(ps))


class TestBasics:
    def test_insert_and_contains(self):
        t = PrefixTree()
        assert t.insert("/a/b")
        assert "/a/b" in t
        assert "/a" not in t  # interior node, not terminal
        assert len(t) == 1

    def test_duplicate_insert_returns_false(self):
        t = PrefixTree()
        assert t.insert("/a")
        assert not t.insert("/a")
        assert len(t) == 1

    def test_remove(self):
        t = PrefixTree()
        t.insert("/a/b")
        assert t.remove("/a/b")
        assert "/a/b" not in t
        assert len(t) == 0

    def test_remove_absent_returns_false(self):
        t = PrefixTree()
        assert not t.remove("/ghost")
        t.insert("/a/b")
        assert not t.remove("/a")  # interior, not terminal

    def test_remove_keeps_descendants(self):
        t = PrefixTree()
        t.insert("/a")
        t.insert("/a/b")
        assert t.remove("/a")
        assert "/a/b" in t
        assert len(t) == 1

    def test_root_path(self):
        t = PrefixTree()
        t.insert("/")
        assert "/" in t
        assert t.remove("/")


class TestDescendants:
    def test_descendants_includes_self(self):
        t = PrefixTree()
        t.insert("/a")
        t.insert("/a/b")
        t.insert("/a/b/c")
        t.insert("/x")
        assert sorted(t.descendants("/a")) == ["/a", "/a/b", "/a/b/c"]

    def test_descendants_respects_component_boundary(self):
        t = PrefixTree()
        t.insert("/ab")
        t.insert("/a/b")
        assert list(t.descendants("/a")) == ["/a/b"]

    def test_descendants_of_absent_prefix_empty(self):
        t = PrefixTree()
        t.insert("/a")
        assert list(t.descendants("/zzz")) == []

    def test_descendants_lexicographic(self):
        t = PrefixTree()
        for p in ("/m", "/a", "/z", "/a/q", "/a/b"):
            t.insert(p)
        assert list(t.descendants("/")) == ["/a", "/a/b", "/a/q", "/m", "/z"]

    def test_remove_subtree(self):
        t = PrefixTree()
        for p in ("/a", "/a/b", "/a/b/c", "/other"):
            t.insert(p)
        victims = t.remove_subtree("/a")
        assert sorted(victims) == ["/a", "/a/b", "/a/b/c"]
        assert len(t) == 1
        assert "/other" in t


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_path, max_size=30))
    def test_matches_set_semantics(self, paths):
        t = PrefixTree()
        reference = set()
        for p in paths:
            assert t.insert(p) == (p not in reference)
            reference.add(p)
        assert len(t) == len(reference)
        assert sorted(t.paths()) == sorted(reference)
        for p in list(reference):
            assert t.remove(p)
        assert len(t) == 0
        assert list(t.paths()) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_path, max_size=20), _path)
    def test_descendants_equal_filter(self, paths, prefix):
        t = PrefixTree()
        reference = set()
        for p in paths:
            t.insert(p)
            reference.add(p)

        def is_under(p):
            return p == prefix or p.startswith(prefix + "/")

        expected = sorted(p for p in reference if is_under(p))
        assert sorted(t.descendants(prefix)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_path, min_size=1, max_size=20))
    def test_interleaved_insert_remove(self, paths):
        t = PrefixTree()
        present = set()
        for i, p in enumerate(paths):
            if i % 3 == 2 and present:
                victim = sorted(present)[0]
                assert t.remove(victim)
                present.discard(victim)
            else:
                t.insert(p)
                present.add(p)
            assert sorted(t.paths()) == sorted(present)
