"""Tests for ``mantle-exp explain --view profile`` and the export helpers.

Profiled runs here stay deliberately tiny (``--clients 6 --items 3``) —
the attribution invariants themselves live in ``tests/sim/test_profile.py``;
this module covers the command surface: case resolution, artifact writing,
validator wiring, the CPU reconcile gate and the diff table.
"""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.exportutil import (
    default_out,
    ensure_valid,
    write_json_payload,
)
from repro.experiments.explain import (
    diff_table,
    explain,
    reconcile_cpu,
    resolve_cases,
)
from repro.sim.profile import validate_folded, validate_speedscope


class TestExportUtil:
    def test_default_out_sanitises(self):
        assert default_out("profile", "fig12") == "profile_fig12"
        assert default_out("trace", "a/b c", ".json") == "trace_a_b_c.json"

    def test_ensure_valid_passes_clean(self):
        ensure_valid([], "anything")  # no raise

    def test_ensure_valid_raises_and_truncates(self):
        problems = [f"problem {i}" for i in range(9)]
        with pytest.raises(RuntimeError, match=r"\+4 more"):
            ensure_valid(problems, "exported payload")

    def test_write_json_payload_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_payload(str(path), {"rows": [1, 2]})
        assert json.loads(path.read_text()) == {"rows": [1, 2]}


class TestCaseResolution:
    def test_figures_map_to_their_knee_ops(self):
        assert {case.op for case in resolve_cases("fig12")} == {"objstat"}
        assert {case.mode for case in resolve_cases("fig14")} == {"shared"}
        assert [case.system for case in resolve_cases("fig19")
                if not case.contrast] == ["mantle"]

    def test_bare_ops_accepted(self):
        assert {case.op for case in resolve_cases("mkdir")} == {"mkdir"}
        # ... including the paper's signature op, on any system asked for.
        assert [case.system for case in
                resolve_cases("dirrename", ["locofs"])] == ["locofs"]

    def test_unknown_target_lists_choices(self):
        with pytest.raises(ValueError, match="fig12"):
            resolve_cases("fig99")

    def test_every_case_op_is_a_real_mdtest_op(self):
        from repro.experiments.explain import MULTITENANT, targets
        from repro.workloads.mdtest import OPS

        for target in targets():
            for case in resolve_cases(target):
                assert case.op in OPS or target == MULTITENANT

    def test_systems_narrow_and_order_a_figures_cases(self):
        cases = resolve_cases("fig12", ["infinifs", "mantle"])
        assert [case.system for case in cases] == ["infinifs", "mantle"]
        # A system the figure has no case for borrows its knee point.
        borrowed, = resolve_cases("fig14", ["locofs"])
        assert (borrowed.system, borrowed.op, borrowed.mode) == \
            ("locofs", "mkdir", "shared")


class TestRunProfile:
    def test_writes_validated_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("objstat", ["profile"], systems=["mantle"],
                         clients=6, items=3)
        tables = result.tables
        (_case, record), = result.runs["profile"]
        assert reconcile_cpu(record) <= 1e-9
        folded = (tmp_path / "profile_objstat_mantle.folded").read_text()
        assert validate_folded(folded.splitlines()) == []
        payload = json.loads(
            (tmp_path / "profile_objstat_mantle.speedscope.json").read_text())
        assert validate_speedscope(payload) == []
        titles = [t.title for t in tables]
        assert any("cost-kind split" in t for t in titles)
        assert any("top self-time" in t for t in titles)

    def test_cpu_in_flight_at_run_end_reconciles(self, tmp_path):
        """fig19's knee ends with compaction rounds still open: their CPU
        is in telemetry but in no finished span, and the gate counts it
        rather than failing by ~1%."""
        result = explain("fig19", ["profile"], out_dir=str(tmp_path))
        (_case, record), = result.runs["profile"]
        assert record.tracer.open_costs()
        assert reconcile_cpu(record) <= 1e-9

    def test_diff_names_mechanisms(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("objstat", ["profile"],
                         diff=("mantle", "infinifs"), clients=6, items=3)
        diff = result.tables[-1]
        assert "differential profile" in diff.title
        assert diff.rows
        # The per-level resolution reads must surface as a named mechanism.
        notes = " ".join(diff.notes)
        assert "rpc:read" in notes or "rpc:lookup" in notes

    def test_diff_table_signs(self):
        class FakeProfile:
            name = "fake"
            ops = 2

            def __init__(self, totals, spans):
                self._totals = totals
                self.frames = spans

            def frame_kind_totals(self):
                return self._totals

        class FakeFrame:
            def __init__(self, spans):
                self.spans = spans

        base = FakeProfile({("f", "cpu"): 10.0}, {"f": FakeFrame(2)})
        other = FakeProfile({("f", "cpu"): 30.0}, {"f": FakeFrame(6)})
        table = diff_table("a", base, "b", other, top=5)
        row = table.rows[0]
        assert row[-2] == "+10.00"  # (30 - 10) / 2 ops
        assert row[-1] == "+2.00"


class TestCli:
    def test_profile_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "objstat", "--view", "profile",
                     "--systems", "mantle", "--clients", "6",
                     "--items", "3"]) == 0
        out = capsys.readouterr().out
        assert "cost-kind split" in out
        assert (tmp_path / "profile_objstat_mantle.folded").exists()
        assert (tmp_path / "profile_objstat_mantle.speedscope.json").exists()

    def test_profile_diff_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "objstat", "--view", "profile",
                     "--diff", "mantle", "tectonic",
                     "--clients", "6", "--items", "3"]) == 0
        out = capsys.readouterr().out
        assert "differential profile" in out
        assert "delta us/op" in out

    def test_profile_rejects_unknown_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["explain", "fig99", "--view", "profile"])

    def test_check_profile_flag_is_gone(self, capsys):
        """Phase means have one derivation, so there is none to check
        them against: ``run --check-profile`` is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig13", "--check-profile"])
        assert exit_info.value.code == 2
        assert "--check-profile" in capsys.readouterr().err
