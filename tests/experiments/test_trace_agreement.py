"""Span-derived experiment numbers: they agree with the ``MetricSet``,
the phase means the figures read are pinned, and a span ring that dropped
spans still gives exact means."""

import json

import pytest

from repro.experiments.base import Case, RunRecord, op_aggregate, run_case
from repro.experiments.cli import main as cli_main
from repro.experiments.explain import (
    AGREEMENT_TOLERANCE,
    agreement_table,
    breakdown_table,
)
from repro.sim.stats import PHASE_EXECUTION, PHASE_LOOKUP, MetricSet
from repro.sim.trace import Tracer, export_chrome_trace, validate_chrome_trace

#: (system, op, depth) -> (lookup, execution) mean phase us of an 8-client,
#: 3-item mdtest point — the fig04/fig13 ops at depth 10 plus a fig17
#: shallower objstat — as the per-op phase counters that spans replaced
#: reported them.  The span fold must reproduce them to the last bit.
PINNED_PHASE_MEANS = {
    ("tectonic", "create", 10): (1129.1666666666667, 546.6666666666666),
    ("tectonic", "delete", 10): (1129.1666666666667, 671.6666666666666),
    ("tectonic", "objstat", 10): (1129.1666666666667, 125.0),
    ("tectonic", "dirstat", 10): (1254.1666666666667, 125.0),
    ("tectonic", "objstat", 4): (379.1666666666667, 125.0),
    ("infinifs", "create", 10): (235.20833333333334, 431.875),
    ("infinifs", "delete", 10): (235.20833333333334, 556.875),
    ("infinifs", "objstat", 10): (362.9166666666667, 0.0),
    ("infinifs", "dirstat", 10): (251.04166666666666, 126.04166666666667),
    ("infinifs", "objstat", 4): (287.2916666666667, 0.0),
    ("locofs", "create", 10): (213.0, 218.33333333333334),
    ("locofs", "delete", 10): (213.0, 343.3333333333333),
    ("locofs", "objstat", 10): (205.0, 125.0),
    ("locofs", "dirstat", 10): (0.0, 213.0),
    ("locofs", "objstat", 4): (155.1999999999971, 125.0),
    ("mantle", "create", 10): (169.66666666666666, 268.3333333333333),
    ("mantle", "delete", 10): (169.66666666666666, 393.3333333333333),
    ("mantle", "objstat", 10): (169.66666666666666, 125.0),
    ("mantle", "dirstat", 10): (177.66666666666666, 125.0),
    ("mantle", "objstat", 4): (149.53333333333043, 125.0),
}


def _artifact(case):
    return case, run_case(case, "quick", ("tracer",), clients=8, items=4)


def test_span_and_metric_derivations_agree_within_tolerance():
    artifacts = [
        _artifact(Case("mkdir/mantle", "mantle", "mkdir")),
        _artifact(Case("objstat/infinifs", "infinifs", "objstat", depth=6)),
    ]
    table, worst = agreement_table(artifacts)
    assert worst <= AGREEMENT_TOLERANCE
    # in the deterministic sim the two derivations are actually bit-equal:
    assert worst == 0.0
    assert len(table.rows) == 2 * 2  # mean latency + mean rpcs per case
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


@pytest.mark.parametrize("system, op, depth", list(PINNED_PHASE_MEANS))
def test_phase_means_match_the_pinned_values(system, op, depth):
    record = run_case(Case(op, system, op, depth=depth), "quick",
                      ("tracer",), clients=8, items=3)
    agg = op_aggregate(record, op)
    assert (agg.mean_phase_us(PHASE_LOOKUP),
            agg.mean_phase_us(PHASE_EXECUTION)) == \
        PINNED_PHASE_MEANS[(system, op, depth)]


def test_a_ring_that_dropped_spans_still_gives_exact_means():
    tracer = Tracer(max_spans=4)
    for i in range(3):
        root = tracer.begin("objstat", 10.0 * i, category="op")
        phase = tracer.begin("lookup", 10.0 * i, category="phase",
                             parent=root)
        tracer.end(phase, 10.0 * i + 1.0 + i)
        rpc = tracer.begin("rpc:lookup", 10.0 * i, category="rpc",
                           parent=root)
        tracer.end(rpc, 10.0 * i + 0.5)
        tracer.end(root, 10.0 * i + 4.0 + i, ok=i != 1)
    assert tracer.dropped == 5
    agg = op_aggregate(RunRecord("tiny", MetricSet(), tracer), "objstat")
    assert (agg.count, agg.failures, agg.rpcs_total) == (2, 1, 2)
    assert agg.mean_latency_us == (4.0 + 6.0) / 2
    assert agg.mean_phase_us(PHASE_LOOKUP) == (1.0 + 3.0) / 2
