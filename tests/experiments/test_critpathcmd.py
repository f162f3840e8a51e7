"""Tests for ``mantle-exp explain --view critpath`` / ``mantle-exp whatif``.

The extraction invariants live in ``tests/sim/test_critpath.py``; this
module covers the command surface (artifact writing, validator wiring,
table shape, CLI exit codes) plus the headline claim of the what-if
engine: on figure *knee* points the prediction (there: the slack model)
lands within 15% of a measured rerun — for an on-path fsync scale, an RTT scale, and an
off-critical-path center that must predict (and measure) ≈0 gain.

The validation probes rerun real knee points, so this file is the slow
end of the suite; everything else stays tiny (``--clients 6 --items 3``).
"""

import json

import pytest

from repro.experiments.base import Case, run_case
from repro.experiments.cli import main
from repro.experiments.explain import explain
from repro.experiments.whatif import (
    DELTA_FLOOR_FRAC,
    WhatIfResult,
    run_whatif,
)
from repro.sim.critpath import validate_critpath
from repro.sim.host import CostModel, CostOverrides


class TestRunCritpath:
    def test_writes_validated_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("objstat", ["critpath"], systems=["mantle"],
                         clients=6, items=3)
        (_case, record), = result.runs["critpath"]
        assert record.crit.conservation_error() < 1e-9
        payload = json.loads(
            (tmp_path / "critpath_objstat_mantle.json").read_text())
        assert validate_critpath(payload) == []
        export, = result.folded["critpath"].exports
        assert payload == export.payload
        titles = [t.title for t in result.tables]
        assert any("top gating centers" in t for t in titles)
        assert any("on-path vs off-path" in t for t in titles)
        assert any("end-to-end" in line for line in result.lines)

    def test_gating_shares_cover_latency(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("mkdir", ["critpath"], systems=["mantle"],
                         clients=6, items=3)
        payload = result.folded["critpath"].exports[0].payload
        assert sum(c["share"] for c in payload["centers"]) == \
            pytest.approx(1.0, abs=1e-3)


class TestWhatIfResultLogic:
    def _result(self, predicted, measured, baseline=1000.0, slack=None):
        return WhatIfResult(
            system="mantle", op="mkdir",
            overrides=CostOverrides.of(**{"tafdb.fsync": 2.0}),
            baseline_mean_us=baseline, predicted_mean_us=predicted,
            measured_mean_us=measured, baseline_kops=1.0,
            measured_kops=1.0, matched_us_per_op={},
            slack_mean_us=predicted if slack is None else slack)

    def test_error_relative_to_measured_delta(self):
        result = self._result(predicted=890.0, measured=900.0)
        assert result.predicted_delta_frac == pytest.approx(0.11)
        assert result.measured_delta_frac == pytest.approx(0.10)
        assert result.error_frac == pytest.approx(0.10)
        assert result.within(0.15)
        assert not result.within(0.05)

    def test_predicting_gain_where_none_measured_is_infinite_error(self):
        result = self._result(predicted=900.0, measured=1000.0)
        assert result.error_frac == float("inf")
        assert not result.within(0.15)

    def test_both_deltas_under_floor_count_as_correct_nothing(self):
        eps = DELTA_FLOOR_FRAC / 2
        result = self._result(predicted=1000.0 * (1 - eps),
                              measured=1000.0)
        assert result.within(0.15)

    def test_slack_figure_is_reported_not_judged(self):
        # Slack over-predicts 2x (20% vs 10%); the floored prediction
        # lands at 11% and is what the gate judges.
        result = self._result(predicted=890.0, measured=900.0, slack=800.0)
        assert result.slack_delta_frac == pytest.approx(0.20)
        assert result.error_frac == pytest.approx(0.10)
        assert result.within(0.15)

    def test_failure_report_names_the_failing_bound(self):
        line = self._result(predicted=800.0, measured=900.0
                            ).failure_report(0.15)
        assert "predicted -20.0% vs measured -10.0%" in line
        assert "error 100.0% of the measured delta" in line
        assert "EXCEEDS --max-error 15%" in line
        assert "within --max-error 15%" in self._result(
            predicted=890.0, measured=900.0).failure_report(0.15)

    def test_failure_report_marks_phantom_gains_as_infinite(self):
        result = self._result(predicted=800.0, measured=1000.0)
        assert "predicted a gain where measurement shows none" in \
            result.failure_report(0.15)
        # A predicted slowdown prints its sign once, and says so.
        line = self._result(predicted=1200.0, measured=1000.0
                            ).failure_report(0.15)
        assert "predicted +20.0% vs measured -0.0%" in line
        assert "predicted a slowdown where measurement shows none" in line


class TestOverrideRerun:
    def test_proxy_override_moves_latency_by_the_proxy_cost(self):
        """A what-if rerun builds the system from the scaled cost model,
        so the proxies see it too.  objstat spends one proxy_overhead_us
        per op on an idle proxy host: at 0.25x that is 3 more per op."""
        case = Case("objstat", "mantle", "objstat")
        slowdown = CostOverrides.of(**{"proxy.cpu": 0.25})
        base, slow = (
            run_case(case, "quick", clients=6, items=3,
                     overrides=overrides).metrics.mean_latency_us("objstat")
            for overrides in (CostOverrides(), slowdown))
        assert slow - base == pytest.approx(
            3 * CostModel().proxy_overhead_us)


@pytest.mark.slow
class TestWhatIfValidation:
    """The acceptance battery: predictions vs measured reruns at knees.

    fig12's quick point (64 objstat clients) sits at its knee; fig14's
    (64 shared-mkdir clients) is past it — latency lifts off the plateau
    at ~32 clients (see the operating-point scan in
    docs/observability.md), so the fsync probe runs there.  Past the knee
    the open-loop model over-predicts by design; that divergence is
    documented, not asserted away.
    """

    def test_fsync_scale_validates_at_fig14_knee(self):
        _tables, result = run_whatif("fig14", ["tafdb.fsync=2x"],
                                     clients=32)
        assert result.measured_delta_frac > DELTA_FLOOR_FRAC
        assert result.within(0.15), (result.predicted_delta_frac,
                                     result.measured_delta_frac)

    def test_rtt_scale_validates_at_fig12_knee(self):
        _tables, result = run_whatif("fig12", ["net.rtt=2x"])
        assert result.measured_delta_frac > DELTA_FLOOR_FRAC
        assert result.within(0.15), (result.predicted_delta_frac,
                                     result.measured_delta_frac)

    def test_off_path_fsync_predicts_and_measures_nothing(self):
        """objstat never fsyncs: the override must predict ≈0 and the
        rerun must confirm it (the contrast's slack claim, made testable).
        """
        _tables, result = run_whatif("fig12", ["raft.fsync=2x"])
        assert abs(result.predicted_delta_frac) < DELTA_FLOOR_FRAC
        assert abs(result.measured_delta_frac) < DELTA_FLOOR_FRAC
        assert result.within(0.15)

    def test_corrected_matches_slack_at_the_knee(self):
        """At the knee the bottleneck floor must not bind: the prediction
        degrades to the slack model exactly (and holds to 15%)."""
        _tables, result = run_whatif("fig14", ["tafdb.fsync=2x"],
                                     clients=32)
        assert result.predicted_mean_us == \
            pytest.approx(result.slack_mean_us)
        assert result.within(0.15)


@pytest.mark.slow
class TestWhatIfDeepSaturation:
    """Deep past fig14's knee the open-loop slack model over-predicts by
    >=2x; the bottleneck-law floor must bind and recover the prediction
    to <=30% of the measured delta (calibrated on two probes with
    different bottleneck stations — see docs/observability.md)."""

    def _probe(self, speedups):
        _tables, result = run_whatif("fig14", speedups, clients=176)
        # The probe only demonstrates the floor when slack really misses
        # big (error > 100% of the measured delta) and the floor binds.
        assert result.slack_delta_frac > 2 * result.measured_delta_frac > 0, \
            (result.slack_delta_frac, result.measured_delta_frac)
        assert result.bottleneck_mean_us > result.slack_mean_us
        assert result.predicted_mean_us == result.bottleneck_mean_us
        assert result.within(0.30), \
            (result.predicted_delta_frac, result.measured_delta_frac)
        return result

    def test_fsync_probe_recovers_cpu_bottleneck_floor(self):
        result = self._probe(["tafdb.fsync=2x"])
        assert result.bottleneck_station.endswith("/cpu")

    def test_cpu_probe_shifts_bottleneck_to_disk(self):
        result = self._probe(["tafdb.cpu=4x"])
        assert result.bottleneck_station.endswith("/disk")


class TestCli:
    def test_critpath_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "objstat", "--view", "critpath",
                     "--systems", "mantle", "--clients", "6",
                     "--items", "3"]) == 0
        out = capsys.readouterr().out
        assert "top gating centers" in out
        assert "exemplar path" in out
        assert (tmp_path / "critpath_objstat_mantle.json").exists()

    def test_whatif_command_gates_on_max_error(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Off-path probe on a tiny read point: predicted == measured == 0,
        # so even a tight gate passes (and stays cheap).
        assert main(["whatif", "objstat", "--speedup", "raft.fsync=2x",
                     "--clients", "6", "--items", "3",
                     "--max-error", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "what-if" in out and "measured" in out

    def test_whatif_requires_a_speedup(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["whatif", "objstat"])
        assert exit_info.value.code == 2
        assert "--speedup" in capsys.readouterr().err

    def test_whatif_rejects_malformed_speedup(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["whatif", "objstat", "--speedup", "warp.drive=9x"])
        assert exit_info.value.code == 2
        assert "warp.drive" in capsys.readouterr().err
