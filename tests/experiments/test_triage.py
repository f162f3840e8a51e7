"""``mantle-exp explain --view triage``: phase-resolved tail blame,
validated end to end.

The PR 10 acceptance path: triaging the fig14 shared-mkdir storm must
find a saturated phase whose tail exemplars fold into a critical path
and blame matrix that conserve (within the critpath tolerance) and name
the same top culprit the full-run blame does — mkdir.  The export must
validate against its schema and be byte-identical to a run on the
all-heap reference scheduler.
"""

import json
import os

import pytest

from repro.experiments.explain import (
    CONSERVATION_TOLERANCE,
    dropped_warning,
    explain,
    validate_triage,
)


def _triage(target, out_dir, **point):
    """One triaged mantle run -> {"payload": ..., "path": ...}."""
    result = explain(target, ["triage"], systems=["mantle"],
                     out_dir=str(out_dir), **point)
    export, = result.folded["triage"].exports
    path, = result.paths
    return {"payload": export.payload, "path": path}


@pytest.fixture(scope="module")
def storm_artifact(tmp_path_factory):
    """One triaged fig14 mantle storm, shared by the assertions below."""
    return _triage("fig14", tmp_path_factory.mktemp("triage"))


class TestTriageStorm:
    def test_saturated_phase_found_and_triaged(self, storm_artifact):
        payload = storm_artifact["payload"]
        assert payload["primary_phase"] == "saturated"
        assert any(p["label"] == "saturated" for p in payload["phases"])
        triaged = [t for t in payload["triage"] if t["exemplars"] > 0]
        assert triaged, "the storm must yield tail exemplars to triage"

    def test_blame_conserves_and_names_mkdir(self, storm_artifact):
        # Same top culprit as the full-run blame matrix (PR 9 ground
        # truth): the mkdir storm blames itself.
        for entry in storm_artifact["payload"]["triage"]:
            if entry["exemplars"] == 0:
                continue
            assert entry["critpath_conservation_error"] \
                <= CONSERVATION_TOLERANCE
            assert entry["blame_conservation_error"] \
                <= CONSERVATION_TOLERANCE
            assert entry["blamed_on"], "queued time must be attributed"
            assert entry["blamed_on"][0]["culprit_op"] == "mkdir"
            assert "gated by" in entry["summary"]
            assert "blamed on" in entry["summary"]

    def test_export_passes_schema_and_is_on_disk(self, storm_artifact):
        assert validate_triage(storm_artifact["payload"]) == []
        with open(storm_artifact["path"]) as handle:
            on_disk = json.load(handle)
        assert validate_triage(on_disk) == []
        assert on_disk == json.loads(
            json.dumps(storm_artifact["payload"], default=str))

    def test_trace_stats_embedded(self, storm_artifact):
        stats = storm_artifact["payload"]["trace_stats"]
        assert stats["started"] > 0
        assert stats["kept_roots"] > 0
        assert stats["kept_spans"] > 0


class TestTriageKernelIndependence:
    def _export_bytes(self, tmp_path, tag):
        out = tmp_path / tag
        out.mkdir()
        artifact = _triage("mkdir", out, clients=24, items=6)
        with open(artifact["path"], "rb") as handle:
            return handle.read()

    def test_export_byte_identical_across_kernels(self, tmp_path, all_heap):
        product = self._export_bytes(tmp_path, "product")
        with all_heap():
            oracle = self._export_bytes(tmp_path, "oracle")
        assert product == oracle


class TestRunTriage:
    def test_run_triage_returns_tables_lines_artifacts(self, tmp_path):
        result = explain(
            "mkdir", ["triage"], scale="quick", out_dir=str(tmp_path),
            systems=["mantle"], clients=16, items=5)
        assert len(result.runs["triage"]) == 1
        assert result.tables, "phase table expected"
        assert any(line.startswith("(wrote ") for line in result.lines)
        assert os.path.exists(result.paths[0])
        assert validate_triage(
            result.folded["triage"].exports[0].payload) == []


class TestTriageSchema:
    def test_rejects_non_object(self):
        assert validate_triage([]) == ["payload is not a JSON object"]

    def test_flags_conservation_breach(self, storm_artifact):
        bad = json.loads(json.dumps(storm_artifact["payload"],
                                    default=str))
        for entry in bad["triage"]:
            if entry["exemplars"] > 0:
                entry["blame_conservation_error"] = 0.5
                break
        problems = validate_triage(bad)
        assert any("conservation tolerance" in p for p in problems)

    def test_flags_unknown_phase_label(self, storm_artifact):
        bad = json.loads(json.dumps(storm_artifact["payload"],
                                    default=str))
        bad["phases"][0]["label"] = "mystery"
        assert any("unknown label" in p for p in validate_triage(bad))


class TestDroppedWarning:
    def test_silent_when_nothing_dropped(self):
        assert dropped_warning({"dropped": 0}) is None

    def test_loud_when_spans_dropped(self):
        warning = dropped_warning({"dropped": 123, "finished": 1000,
                                   "kept_spans": 50, "kept_roots": 5})
        assert warning is not None
        assert "WARNING" in warning
        assert "123" in warning
