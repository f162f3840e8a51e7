"""Tests for the experiment registry, its claims and the CLI (fast
experiments only — ``mantle-exp all`` runs the heavy figures and gates
on their claims)."""

import dataclasses
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.bench.report import Table
from repro.experiments import REGISTRY, get_experiment, list_experiments
from repro.core.config import MantleConfig
from repro.experiments import (
    fig12_read_throughput as fig12,
    fig14_dirmod_throughput as fig14,
    fig15_dirmod_breakdown as fig15,
    fig19_scalability as fig19,
    table1_rtts as table1,
)
from repro.experiments.base import (Case, Claim, map_points,
                                    saturation_point)
from repro.experiments.cli import main
from repro.experiments.explain import resolve_cases, targets
from repro.experiments.runner import ExperimentOutcome, wallclock_table


EXPECTED_IDS = {
    "fig03", "fig04", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "table1", "table3",
    "ext-rdma", "ext-coloc", "ext-failover",
}


class TestRegistry:
    def test_every_paper_exhibit_registered(self):
        assert set(REGISTRY) == EXPECTED_IDS

    def test_list_is_sorted_and_complete(self):
        ids = [e.id for e in list_experiments()]
        assert ids == sorted(ids)
        assert set(ids) == EXPECTED_IDS

    def test_every_experiment_has_claim_and_title(self):
        for experiment in list_experiments():
            assert experiment.title
            assert experiment.paper_claim

    def test_get_unknown_raises_with_known_list(self):
        with pytest.raises(KeyError, match="fig03"):
            get_experiment("fig99")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            get_experiment("fig03").run(scale="galactic")

    def test_fig03_runs_and_returns_tables(self):
        tables = get_experiment("fig03").run(scale="quick")
        assert len(tables) == 2
        assert all(isinstance(t, Table) for t in tables)
        assert all(t.rows for t in tables)


def _swap(monkeypatch, exp_id, doctor=None, deviations=None):
    """Re-register ``exp_id`` with its tables doctored and/or known
    deviations declared at quick scale."""
    experiment = REGISTRY[exp_id]

    def runner(scale):
        tables = experiment.runner(scale)
        if doctor is not None:
            doctor(tables)
        return tables

    monkeypatch.setitem(REGISTRY, exp_id, dataclasses.replace(
        experiment, runner=runner,
        deviations={"quick": deviations or {}}))


def _halve_ns4_objects(tables):
    shape = tables[0]
    shape.rows = [tuple(50.0 if row[0] == "ns4" and header == "object %"
                        else value
                        for header, value in zip(shape.headers, row))
                  for row in shape.rows]


class TestClaims:
    OBJECTS = "75 <= object % <= 95 in every namespace"

    def test_every_exhibit_declares_claims(self):
        for experiment in list_experiments():
            assert callable(experiment.claims), experiment.id
            for entries in experiment.deviations.values():
                assert all(isinstance(n, int) for n in entries.values())

    def test_an_exhibit_without_claims_fails(self):
        experiment = dataclasses.replace(get_experiment("fig03"),
                                         claims=lambda tables: ())
        (claim,) = experiment.check([], "quick")
        assert not claim.ok

    @pytest.mark.parametrize("exp_id", ["fig03", "table3"])
    def test_run_prints_passing_claims_table(self, capsys, exp_id):
        assert main(["run", exp_id]) == 0
        captured = capsys.readouterr()
        assert f"== {exp_id} claims (scale=quick) ==" in captured.out
        assert "holds" in captured.out and "FAILS" not in captured.out
        assert captured.err == ""

    def test_doctored_table_fails_naming_claim_and_value(self, capsys,
                                                         monkeypatch):
        _swap(monkeypatch, "fig03", doctor=_halve_ns4_objects)
        assert main(["run", "fig03"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("fig03: ")
        assert self.OBJECTS in line and "ns4 50" in line
        # Every other claim was still evaluated and printed.
        assert captured.out.count("holds") == 3

    def test_known_deviation_passes_by_failing(self, capsys, monkeypatch):
        _swap(monkeypatch, "fig03", doctor=_halve_ns4_objects,
              deviations={self.OBJECTS: 9})
        assert main(["run", "fig03"]) == 0
        assert "fails (known deviation 9)" in capsys.readouterr().out

    def test_known_deviation_that_holds_fails_the_run(self, capsys,
                                                      monkeypatch):
        _swap(monkeypatch, "fig03", deviations={self.OBJECTS: 9})
        assert main(["run", "fig03"]) == 1
        err = capsys.readouterr().err
        assert "fig03: " in err and "known deviation 9 is stale" in err

    def test_deviation_naming_no_claim_fails(self):
        experiment = dataclasses.replace(
            get_experiment("fig03"), deviations={"quick": {"no such": 3}})
        tables = experiment.run("quick")
        failed = [c for c in experiment.check(tables, "quick") if not c.ok]
        assert [c.measured for c in failed] == ["no such claim"]

    def test_failed_claims_show_in_the_wallclock_status(self):
        outcome = ExperimentOutcome(
            "fig03", "t", 1.0, [], [Claim("x > 1", 0.5, False),
                                    Claim("y > 1", 2.0, True)])
        assert not outcome.ok
        assert wallclock_table([outcome]).rows[0][-1] == "claims failed: 1"


class TestCases:
    """Sweep points are data: each exhibit declares its ``Case`` s once and
    ``explain``/``whatif`` find a figure's cases through the registry."""

    def test_targets(self):
        assert targets() == [
            "fig12", "fig14", "fig15", "fig19", "multitenant", "table1",
            "create", "delete", "objstat", "dirstat", "readdir", "mkdir",
            "rmdir", "dirrename"]

    @pytest.mark.parametrize("target, cases", [
        ("fig12", fig12.CASES), ("fig14", fig14.CASES),
        ("fig19", fig19.CLIENT_CASES)])
    def test_a_figures_knee_is_some_of_its_cases(self, target, cases):
        knee = resolve_cases(target)
        assert knee and all(case in cases for case in knee)
        assert len(knee) < len(cases)

    @pytest.mark.parametrize("target, cases", [
        ("fig15", fig15.CASES), ("table1", table1.CASES)])
    def test_a_traced_exhibit_explains_every_case(self, target, cases):
        assert tuple(resolve_cases(target)) == cases

    def test_map_points_pool_matches_serial(self):
        """Cases (one carrying a config) cross the worker pool intact."""
        points = [(Case("tectonic objstat", "tectonic", "objstat",
                        clients=(6, 6), items=(3, 3)), "quick"),
                  (Case("mantle objstat", "mantle", "objstat",
                        clients=(6, 6), items=(3, 3),
                        config=MantleConfig(enable_follower_read=False)),
                   "quick")]
        serial = map_points(saturation_point, points)
        assert map_points(saturation_point, points, jobs=2) == serial


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPECTED_IDS:
            assert exp_id in out

    def test_run_command(self, capsys):
        assert main(["run", "fig03"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "ns4" in out

    def test_fig03_tables_do_not_depend_on_the_hash_seed(self):
        # The profiles seed their synthetic trees from a digest of the
        # namespace name, not hash(): interpreters with different hash
        # seeds must print the same tables.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", "run",
                 "fig03", "--scale", "quick"],
                env=env, capture_output=True, text=True, check=True)
            outputs.append(re.sub(r"[0-9.]+s wall", "", proc.stdout))
        assert "Figure 3b" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_run_with_scale_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["run", "fig03", "--scale", "gigantic"])

    def test_telemetry_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "fig12", "--view", "telemetry",
                     "--clients", "8", "--items", "4"]) == 0
        out = capsys.readouterr().out
        assert "saturation verdicts" in out
        assert "cpu tafdb-0" in out  # per-host CPU timeline
        csv_text = (tmp_path / "telemetry_fig12.csv").read_text()
        assert csv_text.startswith(
            "metric,kind,host,window_start_us,value,count,max,capacity")
        import json

        payload = json.loads((tmp_path / "telemetry_fig12.json").read_text())
        assert payload["experiment"] == "fig12"
        assert payload["verdict"]
        assert payload["rows"]

    def test_telemetry_command_rejects_unknown_fig(self):
        with pytest.raises(SystemExit):
            main(["explain", "fig03", "--view", "telemetry"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, names", [
        (["whatif", "mkdir"], "--speedup"),
        (["explain", "fig12", "--view", "profile",
          "--diff", "mantle", "nosuch"], "nosuch"),
        (["explain", "fig99", "--view", "critpath"], "fig99"),
        (["explain", "fig12", "--view", "critpath,nosuch"], "nosuch"),
        (["explain", "fig12", "--view", "critpath",
          "--diff", "mantle", "tectonic"], "--diff"),
        (["explain", "fig15", "--view", "critpath"], "fig15"),
        (["whatif", "objstat", "--speedup", "warp.drive=9x"], "warp.drive"),
    ])
    def test_user_mistakes_exit_2_with_one_line(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = [line for line in err.splitlines()
                   if line.startswith("mantle-exp")]
        assert len(message) == 1 and names in message[0]

    def test_explains_the_papers_signature_op(self, capsys, tmp_path):
        """dirrename is a target like any other mdtest op, and both
        conservation identities hold on it."""
        import json

        from repro.experiments.explain import CONSERVATION_TOLERANCE

        assert main(["explain", "dirrename", "--view", "critpath,blame",
                     "--systems", "mantle", "--clients", "8",
                     "--items", "4", "--out", str(tmp_path)]) == 0
        assert "top gating centers" in capsys.readouterr().out
        crit = json.loads(
            (tmp_path / "critpath_dirrename_mantle.json").read_text())
        assert crit["ops"] == 8 * 4
        assert abs(sum(c["share"] for c in crit["centers"]) - 1.0) < 1e-3
        blame = json.loads(
            (tmp_path / "blame_dirrename_mantle.json").read_text())
        assert blame["conservation_error"] <= CONSERVATION_TOLERANCE
        assert sum(cell["us"] for cell in blame["cells"]) == pytest.approx(
            blame["total_queue_us"], abs=1e-3 * (len(blame["cells"]) + 1))

    def test_out_is_a_directory_and_views_never_share_a_file(self, tmp_path):
        assert main(["explain", "mkdir", "--view", "critpath,triage",
                     "--systems", "mantle", "--clients", "6",
                     "--items", "3", "--out", str(tmp_path)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "critpath_mkdir_mantle.json", "triage_mkdir_mantle.json"]
