"""Span-derived experiment numbers must agree with the legacy counters."""

import json

from repro.experiments.base import mdtest_run
from repro.experiments.cli import main as cli_main
from repro.experiments.explain import (
    AGREEMENT_TOLERANCE,
    Case,
    agreement_table,
    breakdown_table,
)
from repro.sim.trace import export_chrome_trace, validate_chrome_trace


def _artifact(system, op, **kwargs):
    return (Case(f"{op}/{system}", system, op),
            mdtest_run(system, op, ("tracer",), **kwargs))


def test_span_and_metric_derivations_agree_within_tolerance():
    artifacts = [
        _artifact("mantle", "mkdir", clients=8, items=4),
        _artifact("infinifs", "objstat", clients=8, items=4, depth=6),
    ]
    table, worst = agreement_table(artifacts)
    assert worst <= AGREEMENT_TOLERANCE
    # in the deterministic sim the two derivations are actually bit-equal:
    assert worst == 0.0
    assert len(table.rows) >= 2 * 3  # latency + rpcs + >=1 phase per case
    payload = export_chrome_trace(
        [(case.label, record.tracer.spans) for case, record in artifacts])
    assert validate_chrome_trace(payload) == []
    summary = breakdown_table(artifacts)
    assert summary.rows


def test_cli_trace_subcommand_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "trace_table1.json"
    assert cli_main(["explain", "table1", "--view", "trace",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) == []
    assert payload["traceEvents"]
    printed = capsys.readouterr().out
    assert "Span-derived vs metric-derived agreement" in printed
