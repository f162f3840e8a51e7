"""Tests for ``mantle-exp explain --view blame`` — interference-blame
command surface.

The matrix-construction invariants live in ``tests/sim/test_critpath.py``
(``TestBuildBlame``); this module covers the command: artifact writing +
validator wiring on a tiny point, CLI exit codes, and the slow
acceptance battery — on the fig14 shared-mkdir storm the top culprit
must be the storming op type itself, the multitenant scenario must blame
the storm tenant for the majority of the victim's queueing, and the
JSON exports must be byte-identical to a run on the all-heap reference
scheduler (occupant tracking is pure bookkeeping).
"""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.explain import explain
from repro.sim.critpath import validate_blame

#: The fig14 '-s' probe point: past the knee (~24 clients) but small
#: enough for CI — the same point the whatif knee battery uses.
_FIG14_SMALL = dict(scale="quick", systems=["mantle"], clients=24)


class TestRunBlame:
    def test_writes_validated_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("mkdir", ["blame"], systems=["mantle"],
                         clients=6, items=3)
        (_case, record), = result.runs["blame"]
        assert record.crit.blame.conservation_error() <= 1e-6
        assert record.crit.conservation_error() <= 1e-6
        payload = json.loads(
            (tmp_path / "blame_mkdir_mantle.json").read_text())
        assert validate_blame(payload) == []
        export, = result.folded["blame"].exports
        assert payload == export.payload
        assert any("top culprits" in t.title for t in result.tables)
        # The exemplar path names a culprit for each queue segment.
        assert any("<-" in line for line in result.lines)

    def test_blamed_microseconds_cover_queue_segments(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("mkdir", ["blame"], systems=["mantle"],
                         clients=6, items=3)
        payload = result.folded["blame"].exports[0].payload
        blamed = sum(cell["us"] for cell in payload["cells"])
        assert blamed == pytest.approx(payload["total_queue_us"],
                                       rel=1e-3)
        assert 0.0 < payload["queue_share"] < 1.0


class TestCli:
    def test_blame_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "mkdir", "--view", "blame",
                     "--systems", "mantle", "--clients", "6",
                     "--items", "3"]) == 0
        out = capsys.readouterr().out
        assert "top culprits" in out
        assert "exemplar victim path" in out
        assert (tmp_path / "blame_mkdir_mantle.json").exists()

    def test_blame_rejects_unknown_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["explain", "warp-drive", "--view", "blame"])


@pytest.mark.slow
class TestBlameValidation:
    """The acceptance battery: the storming op type must come out as the
    top culprit, the multitenant victim's queueing must trace to the
    storm tenant, and exports must not depend on the kernel."""

    def test_fig14_storm_names_mkdir_as_top_culprit(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("fig14", ["blame"], **_FIG14_SMALL)
        blame = result.runs["blame"][0][1].crit.blame
        assert blame.conservation_error() <= 1e-6
        (top_op, _tenant, _resource), _us = blame.top_culprits(1)[0]
        assert top_op == "mkdir"

    def test_fig14_export_byte_identical_across_kernels(self, tmp_path,
                                                        monkeypatch,
                                                        all_heap):
        monkeypatch.chdir(tmp_path)

        def export():
            result = explain("fig14", ["blame"], **_FIG14_SMALL)
            return (tmp_path / result.paths[0]).read_bytes()

        product = export()
        with all_heap():
            assert export() == product

    def test_multitenant_blames_storm_for_victim_queueing(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = explain("multitenant", ["blame"], scale="quick")
        (_case, record), = result.runs["blame"]
        blame = record.crit.blame
        assert blame.conservation_error() <= 1e-6
        assert validate_blame(
            result.folded["blame"].exports[0].payload) == []
        matrix = blame.tenant_matrix()
        victim_rows = {culprit: us for (victim, culprit), us
                       in matrix.items() if victim == "victim"}
        total = sum(victim_rows.values())
        assert total > 0.0
        # The noisy neighbour owns the majority of the victim's queueing.
        assert victim_rows.get("storm", 0.0) > 0.5 * total
        assert record.metrics.mean_latency_us("objstat") > 0.0

    def test_multitenant_export_byte_identical_across_kernels(
            self, tmp_path, monkeypatch, all_heap):
        monkeypatch.chdir(tmp_path)

        def export():
            result = explain("multitenant", ["blame"], scale="quick")
            return (tmp_path / result.paths[0]).read_bytes()

        product = export()
        with all_heap():
            assert export() == product
