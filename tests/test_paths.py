"""Unit tests for path utilities (repro.paths)."""

import pytest

from repro.errors import InvalidPathError
from repro.paths import (
    ancestors,
    is_prefix,
    normalize,
    parent_and_name,
    split_path,
    truncate_prefix,
)


class TestSplitPath:
    def test_simple(self):
        assert split_path("/A/C/E") == ["A", "C", "E"]

    def test_root(self):
        assert split_path("/") == []

    def test_trailing_slash_tolerated(self):
        assert split_path("/A/B/") == ["A", "B"]

    def test_relative_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("A/B")

    def test_empty_component_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("/A//B")

    def test_dot_components_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("/A/./B")
        with pytest.raises(InvalidPathError):
            split_path("/A/../B")

    def test_non_string_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path(123)

    def test_overlong_component_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("/" + "x" * 256)

    def test_overdeep_path_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("/" + "/".join(["d"] * 300))


class TestManipulation:
    def test_normalize(self):
        assert normalize("/A/B/") == "/A/B"
        assert normalize("/") == "/"

    def test_parent_and_name(self):
        assert parent_and_name("/A/C/E") == ("/A/C", "E")
        assert parent_and_name("/A") == ("/", "A")

    def test_parent_of_root_rejected(self):
        with pytest.raises(InvalidPathError):
            parent_and_name("/")


class TestPrefixLogic:
    def test_is_prefix_true_cases(self):
        assert is_prefix("/", "/A")
        assert is_prefix("/A/C", "/A/C")
        assert is_prefix("/A/C", "/A/C/E")

    def test_is_prefix_component_boundary(self):
        assert not is_prefix("/A/C", "/A/CE")

    def test_is_prefix_false_when_longer(self):
        assert not is_prefix("/A/C/E", "/A/C")

    def test_ancestors(self):
        assert ancestors("/A/C/E") == ["/", "/A", "/A/C"]
        assert ancestors("/A") == ["/"]

    def test_truncate_prefix(self):
        assert truncate_prefix("/A/C/E/G/H", 3) == "/A/C"
        assert truncate_prefix("/A/C", 3) == "/"
        assert truncate_prefix("/A/C/E", 0) == "/A/C/E"

    def test_truncate_prefix_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate_prefix("/A", -1)
