"""``mantle-exp explain`` against the byte-identical export oracle.

``golden_exports.json`` holds the sha256 of every file the six retired
explanation commands wrote at the commit before they were folded into
``explain`` (41e526c).  Each invocation below regenerates its files
through the one new path into ``tmp_path`` and must reproduce those bytes
— independent of the output directory, of ``PYTHONHASHSEED`` and of which
other views shared the simulated run.

The digests were taken one command per process.  TafDB client ids (in the
trace exports' ``txn_id`` attributes) are numbered per deployment, so no
process history reaches the exports; ``trace_fig15.json``, whose one
command builds several deployments, was re-pinned when they stopped
sharing a process-wide counter — its ``txn_id`` client numbers restart per
system, and every other byte is unchanged.  ``trace_fig15.json``,
``trace_table1.json`` and ``triage_fig14_mantle.json`` were re-pinned when
the tracer lost root sampling: loaded as JSON, each equals the previous
export with the ``sample_every`` key of its ``trace_stats`` removed.
"""

import hashlib
import json
import pathlib

import pytest

import repro.experiments.base as base
from repro.experiments.explain import explain

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_exports.json").read_text())

#: (explain kwargs, files it must write).
INVOCATIONS = [
    (dict(target="mkdir", views=["critpath"], systems=["mantle"],
          clients=16, items=6), ["critpath_mkdir_mantle.json"]),
    (dict(target="fig14", views=["blame"], systems=["mantle"], clients=24),
     ["blame_fig14_mantle.json"]),
    (dict(target="fig14", views=["triage"], systems=["mantle"],
          clients=24), ["triage_fig14_mantle.json"]),
    (dict(target="fig12", views=["profile"], clients=16, items=6),
     [f"profile_fig12_{system}{suffix}"
      for system in ("tectonic", "mantle", "infinifs")
      for suffix in (".folded", ".speedscope.json")]),
    (dict(target="fig14", views=["telemetry"]),
     ["telemetry_fig14.csv", "telemetry_fig14.json"]),
    (dict(target="fig15", views=["trace"]), ["trace_fig15.json"]),
    (dict(target="table1", views=["trace"]), ["trace_table1.json"]),
    (dict(target="multitenant", views=["blame"]),
     ["blame_multitenant.json"]),
]


def _digests(directory) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def test_every_golden_file_is_regenerated_by_some_invocation():
    assert sorted(name for _kw, names in INVOCATIONS for name in names) \
        == sorted(GOLDEN)


@pytest.mark.parametrize(
    "kwargs, names", INVOCATIONS,
    ids=[f"{kw['target']}-{'+'.join(kw['views'])}"
         for kw, _names in INVOCATIONS])
def test_exports_match_the_parent_commit_byte_for_byte(tmp_path, kwargs,
                                                       names):
    result = explain(out_dir=str(tmp_path), **kwargs)
    assert [pathlib.Path(path).name for path in result.paths] == names
    assert _digests(tmp_path) == {name: GOLDEN[name] for name in names}


def test_views_named_together_share_one_run(tmp_path, monkeypatch):
    """Four views, one system built — and each export equals what the
    single-view invocation writes (the span ring does not depend on the
    tail keeper or on telemetry being attached)."""
    built = []
    build_system = base.build_system
    monkeypatch.setattr(
        base, "build_system",
        lambda *args, **kw: built.append(args) or build_system(*args, **kw))
    views = ["profile", "critpath", "blame", "triage"]
    point = dict(target="fig14", systems=["mantle"], clients=24)
    shared = tmp_path / "shared"
    shared.mkdir()
    explain(views=views, out_dir=str(shared), **point)
    assert len(built) == 1
    alone = tmp_path / "alone"
    alone.mkdir()
    for view in views:
        explain(views=[view], out_dir=str(alone), **point)
    assert len(built) == 1 + len(views)
    assert _digests(shared) == _digests(alone)
    assert len(_digests(shared)) == 5


def test_an_invalid_export_is_refused_not_written(tmp_path, monkeypatch):
    """The command is its own schema gate: a payload that fails
    validation raises and leaves no file behind."""
    import repro.experiments.explain as explain_module

    real = explain_module.to_critpath_payload

    def corrupt(crit, contrast=None):
        payload = real(crit, contrast)
        payload["centers"][0]["share"] = 0.9
        return payload

    monkeypatch.setattr(explain_module, "to_critpath_payload", corrupt)
    with pytest.raises(RuntimeError, match="failed schema validation"):
        explain("objstat", ["critpath"], systems=["mantle"], clients=6,
                items=3, out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
