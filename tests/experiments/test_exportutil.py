"""Direct unit tests for ``repro.experiments.exportutil``.

Every ``mantle-exp explain`` export goes through ``write_export`` (and
``mantle-exp live`` through the three helpers under it); the contract —
sanitised default names, validate-before-write, trailing-newline JSON —
is pinned here.
"""

import json

import pytest

from repro.experiments.exportutil import (
    default_out,
    ensure_valid,
    write_export,
    write_json_payload,
    write_lines,
)


class TestDefaultOut:
    def test_joins_kind_and_name(self):
        assert default_out("critpath", "fig14") == "critpath_fig14"

    def test_suffix_appended_verbatim(self):
        assert default_out("profile", "fig12",
                           ".speedscope.json") == "profile_fig12.speedscope.json"

    def test_sanitises_separators_and_spaces(self):
        assert default_out("trace", "a/b c") == "trace_a_b_c"
        assert "/" not in default_out("trace", "../../etc/passwd")


class TestEnsureValid:
    def test_no_problems_is_a_no_op(self):
        assert ensure_valid([], "anything") is None

    def test_raises_with_context_and_problems(self):
        with pytest.raises(RuntimeError) as excinfo:
            ensure_valid(["bad share", "missing frame"], "critpath.json")
        message = str(excinfo.value)
        assert "critpath.json" in message
        assert "bad share; missing frame" in message

    def test_truncates_past_limit(self):
        problems = [f"p{i}" for i in range(8)]
        with pytest.raises(RuntimeError, match=r"\(\+3 more\)"):
            ensure_valid(problems, "payload")

    def test_custom_limit(self):
        with pytest.raises(RuntimeError, match=r"p0 \(\+2 more\)"):
            ensure_valid(["p0", "p1", "p2"], "payload", limit=1)


class TestWriteJsonPayload:
    def test_round_trips_and_returns_payload(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"centers": [{"share": 0.5}], "ops": 3}
        assert write_json_payload(str(path), payload) is payload
        assert json.loads(path.read_text()) == payload

    def test_ends_with_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_payload(str(path), [1, 2])
        assert path.read_text().endswith("\n")

    def test_non_serialisable_values_fall_back_to_str(self, tmp_path):
        class Opaque:
            def __str__(self):
                return "opaque-object"

        path = tmp_path / "out.json"
        write_json_payload(str(path), {"value": Opaque()})
        assert json.loads(path.read_text()) == {"value": "opaque-object"}

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_payload(str(path), {"old": True})
        write_json_payload(str(path), {"new": True})
        assert json.loads(path.read_text()) == {"new": True}


class TestWriteExport:
    def test_names_by_view_target_and_system(self, tmp_path):
        path = write_export(str(tmp_path), "critpath", "fig14", "mantle",
                            ".json", {"ok": 1}, lambda payload: [])
        assert path == str(tmp_path / "critpath_fig14_mantle.json")
        assert json.loads((tmp_path / "critpath_fig14_mantle.json")
                          .read_text()) == {"ok": 1}

    def test_whole_target_exports_carry_no_system(self, tmp_path):
        for system in (None, "multitenant"):
            path = write_export(str(tmp_path), "blame", "multitenant",
                                system, ".json", {}, lambda payload: [])
            assert path == str(tmp_path / "blame_multitenant.json")

    def test_refuses_an_invalid_payload_and_writes_nothing(self, tmp_path):
        with pytest.raises(RuntimeError, match="bad share"):
            write_export(str(tmp_path), "critpath", "fig14", "mantle",
                         ".json", {}, lambda payload: ["bad share"])
        assert list(tmp_path.iterdir()) == []

    def test_creates_the_output_directory(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        write_export(str(out), "profile", "fig12", "mantle", ".folded",
                     ["a;b 3"], lambda lines: [], write_lines)
        assert (out / "profile_fig12_mantle.folded").read_text() == "a;b 3\n"
