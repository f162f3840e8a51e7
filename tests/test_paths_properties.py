"""Property-based tests for path utilities."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paths

_component = st.text(alphabet=string.ascii_lowercase + string.digits,
                     min_size=1, max_size=6)
_parts = st.lists(_component, min_size=1, max_size=8)
_path = _parts.map(lambda ps: "/" + "/".join(ps))


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(_parts)
    def test_split_join_roundtrip(self, parts):
        path = "/" + "/".join(parts)
        assert paths.split_path(path) == parts
        assert paths.normalize(path) == path

    @settings(max_examples=150, deadline=None)
    @given(_path)
    def test_parent_and_name_recompose(self, path):
        parent, name = paths.parent_and_name(path)
        assert parent.rstrip("/") + "/" + name == path
        assert paths.split_path(parent) == paths.split_path(path)[:-1]

    @settings(max_examples=150, deadline=None)
    @given(_path, st.integers(0, 10))
    def test_truncate_prefix_is_a_prefix(self, path, k):
        prefix = paths.truncate_prefix(path, k)
        assert paths.is_prefix(prefix, path)
        assert len(paths.split_path(prefix)) == \
            max(0, len(paths.split_path(path)) - k)


class TestPrefixAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(_path)
    def test_ancestors_are_strict_prefixes(self, path):
        for ancestor in paths.ancestors(path):
            assert paths.is_prefix(ancestor, path)
            assert ancestor != path

    @settings(max_examples=150, deadline=None)
    @given(_path, st.integers(1, 5))
    def test_is_prefix_transitive_along_ancestors(self, path, step):
        chain = paths.ancestors(path) + [path]
        for i in range(len(chain)):
            j = min(i + step, len(chain) - 1)
            assert paths.is_prefix(chain[i], chain[j])
