"""Span tracer unit tests plus whole-stack span-tree invariants."""

import pytest

from repro.core.api import MantleClient
from repro.core.config import MantleConfig
from repro.errors import MetadataError
from repro.sim.trace import (
    NONEMPTY,
    check_shape,
    shape_items,
    NULL_SPAN,
    NULL_TRACER,
    OpAggregate,
    Tracer,
    SpanIndex,
    aggregate_ops,
    category_summary,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)


class TestTracerUnit:
    def test_begin_end_builds_tree(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 10.0, category="op", host="proxy-0")
        child = tracer.begin("rpc:lookup", 11.0, category="rpc", parent=root)
        tracer.end(child, 15.0)
        tracer.end(root, 20.0)
        spans = list(tracer.spans)
        assert [s.name for s in spans] == ["rpc:lookup", "mkdir"]
        assert spans[0].parent_id == root.span_id
        assert root.parent_id == 0
        assert root.duration_us == 10.0
        assert tracer.started == tracer.finished == 2
        assert tracer.dropped == 0

    def test_annotate_and_failure_flag(self):
        tracer = Tracer()
        span = tracer.begin("txn", 0.0, category="txn")
        span.annotate(shards=2)
        span.annotate(mode="2pc")
        tracer.end(span, 5.0, ok=False)
        got = list(tracer.spans)[0]
        assert got.attrs == {"shards": 2, "mode": "2pc"}
        assert got.ok is False

    def test_ring_bounds_and_dropped(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            tracer.end(tracer.begin(f"s{i}", float(i)), float(i) + 1)
        assert len(tracer.spans) == 4
        assert tracer.dropped == 6
        assert [s.name for s in tracer.spans] == ["s6", "s7", "s8", "s9"]

    def test_reset(self):
        tracer = Tracer()
        tracer.end(tracer.begin("x", 0.0), 1.0)
        tracer.reset()
        assert len(tracer.spans) == 0
        assert tracer.started == tracer.finished == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.begin("anything", 0.0, category="op")
        assert span is NULL_SPAN
        assert not span  # falsy so `if span:` skips work
        span.annotate(ignored=True)
        NULL_TRACER.end(span, 1.0)
        NULL_TRACER.reset()
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.dropped == 0


class TestAggregation:
    def _traced_ops(self):
        tracer = Tracer()
        for i in range(3):
            root = tracer.begin("mkdir", 0.0, category="op")
            phase = tracer.begin("lookup", 0.0, category="phase", parent=root)
            tracer.end(phase, 4.0)
            rpc = tracer.begin("rpc:m", 4.0, category="rpc", parent=root)
            tracer.end(rpc, 6.0)
            tracer.end(root, 10.0 + i)
        failed = tracer.begin("mkdir", 0.0, category="op")
        tracer.end(failed, 1.0, ok=False)
        return tracer

    def test_aggregate_ops_matches_metricset_semantics(self):
        agg = aggregate_ops(SpanIndex(self._traced_ops().spans))["mkdir"]
        assert isinstance(agg, OpAggregate)
        assert agg.count == 3
        assert agg.failures == 1  # failed roots contribute nothing else
        assert agg.mean_latency_us == pytest.approx(11.0)
        assert agg.mean_rpcs == pytest.approx(1.0)
        assert agg.mean_phase_us("lookup") == pytest.approx(4.0)
        assert agg.mean_phase_us("execution") == 0.0

    def test_means_over_successful_roots_only(self):
        tracer = Tracer()
        for latency, ok in ((10.0, True), (20.0, True), (99.0, False)):
            root = tracer.begin("objstat", 0.0, category="op")
            phase = tracer.begin("lookup", 0.0, category="phase",
                                 parent=root)
            tracer.end(phase, latency)
            tracer.end(root, latency + 1.0, ok=ok)
        agg = aggregate_ops(SpanIndex(tracer.spans))["objstat"]
        assert agg.phases == {"lookup": (2, 30.0)}
        assert agg.mean_phase_us("lookup") == 15.0

    def test_repeated_phase_sums_within_an_op(self):
        """Retries re-enter a phase; the op's phase time is the sum."""
        tracer = Tracer()
        root = tracer.begin("create", 0.0, category="op")
        for start, end in ((0.0, 4.0), (10.0, 16.0)):
            phase = tracer.begin("execution", start, category="phase",
                                 parent=root)
            tracer.end(phase, end)
        tracer.end(root, 20.0)
        agg = aggregate_ops(SpanIndex(tracer.spans))["create"]
        assert agg.mean_phase_us("execution") == 10.0  # 4 + 6, one root

    def test_children_index_and_category_summary(self):
        tracer = self._traced_ops()
        index = SpanIndex(tracer.spans)
        roots = [s for s in tracer.spans if s.category == "op" and s.ok]
        for root in roots:
            assert len(index.declared_children(root)) == 2
        summary = category_summary(tracer.spans)
        assert summary["op"][0] == 4
        assert summary["rpc"] == (3, pytest.approx(6.0))


class TestChromeExport:
    def test_events_and_validation(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 5.0, category="op", host="proxy-0")
        child = tracer.begin("rpc:x", 6.0, category="rpc", parent=root,
                             host="db-0")
        tracer.end(child, 8.0)
        tracer.end(root, 9.0)
        payload = export_chrome_trace([("case-a", tracer.spans)])
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        # hosts become named threads inside the section's process
        meta = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"case-a", "proxy-0", "db-0"} <= meta
        by_name = {e["name"]: e for e in complete}
        assert by_name["mkdir"]["ts"] == 5.0
        assert by_name["mkdir"]["dur"] == 4.0
        assert by_name["rpc:x"]["args"]["parent_id"] == root.span_id

    def test_unfinished_spans_are_skipped(self):
        tracer = Tracer()
        tracer.begin("open-ended", 0.0)  # never ended
        assert chrome_trace_events(tracer.spans) == []

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace([]) == ["payload is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing traceEvents array"]
        bad = {"traceEvents": [
            {"name": "", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
            {"name": "x", "ph": "Q", "pid": 1, "tid": 1},
            {"name": "y", "ph": "X", "pid": "p", "tid": 1, "ts": -1, "dur": 1},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("missing name" in p for p in problems)
        assert any("unsupported ph" in p for p in problems)
        assert any("pid must be an int" in p for p in problems)
        assert any("bad ts" in p for p in problems)


class TestSpanTreeInvariants:
    """Whole-stack invariants."""

    def _client_session(self):
        client = MantleClient(MantleConfig.small(tracing=True))
        results = [
            client.mkdir("/a"),
            client.mkdir("/a/b"),
            client.create("/a/b/f0"),
            client.create("/a/b/f1"),
            client.rename("/a/b", "/a/c"),
        ]
        client.objstat("/a/c/f0")
        with pytest.raises(MetadataError):
            client.mkdir("/a")  # already exists -> failed op root
        return client, results

    def test_children_nest_within_parents(self):
        client, _results = self._client_session()
        try:
            spans = list(client.tracer.spans)
            assert spans, "tracing was enabled but produced no spans"
            by_id = {s.span_id: s for s in spans}
            for span in spans:
                if not span.parent_id:
                    continue
                parent = by_id.get(span.parent_id)
                if parent is None:
                    continue  # parent fell out of the ring
                assert span.start_us >= parent.start_us
                assert span.end_us <= parent.end_us
        finally:
            client.close()

    def test_rpc_span_count_matches_ctx_rpcs(self):
        client, results = self._client_session()
        try:
            spans = list(client.tracer.spans)
            roots = [s for s in spans if s.category == "op"]
            index = SpanIndex(spans)
            # ops ran sequentially, so roots line up with the call order;
            # the first five are the mutations that returned OpResults.
            assert len(roots) == 7
            for root, result in zip(roots, results):
                rpc_children = [c for c in index.declared_children(root)
                                if c.category == "rpc"]
                assert len(rpc_children) == result.rpcs
            assert roots[-1].ok is False  # the duplicate mkdir
            # aggregate view agrees with the MetricSet counters:
            agg = aggregate_ops(index)
            for op in ("mkdir", "create", "dirrename", "objstat"):
                assert agg[op].mean_rpcs == pytest.approx(
                    client.metrics.mean_rpcs(op))
                assert agg[op].mean_latency_us == pytest.approx(
                    client.metrics.mean_latency_us(op))
            assert agg["mkdir"].failures == 1
        finally:
            client.close()


class TestCheckShape:
    """The one declarative checker every ``validate_*`` calls."""

    SPEC = {
        "name": "str",
        "note": "text",
        "host": "str?",
        "ops": "int>=0",
        "pid": "int",
        "offset": "num",
        "total_us": "num>=0",
        "share": "share",
        "seen": "any",
        "kind": ("enum", ("cpu", "wire")),
        "phase": ("enum?", ("warmup",), "unsupported"),
        "version": ("const", 1, "unknown version"),
        "meta": {"rows": [{"us": "num>=0"}, NONEMPTY]},
        "tags": ["text"],
        "free": [],
        "args?": {},
    }
    GOOD = {
        "name": "x", "note": "", "host": None, "ops": 0, "pid": -3,
        "offset": -1.5, "total_us": 2.0, "share": 1, "seen": 0,
        "kind": "cpu", "phase": None, "version": 1,
        "meta": {"rows": [{"us": 1}]}, "tags": ["", "a"], "free": [1, {}],
    }

    def test_a_conforming_payload_has_no_problems(self):
        assert check_shape(self.GOOD, self.SPEC) == []
        assert check_shape(dict(self.GOOD, args={}), self.SPEC) == []

    @pytest.mark.parametrize("field, bad, problem", [
        ("name", "", "missing name"),
        ("note", 3, "missing note"),
        ("host", 7, "host must be a string or null"),
        ("ops", -1, "ops must be a non-negative int"),
        ("pid", "p", "pid must be an int"),
        ("offset", "1", "bad offset '1' (want a number)"),
        ("total_us", -2, "bad total_us -2 (want a non-negative number)"),
        ("share", 1.5, "bad share 1.5 (want a number in [0, 1])"),
        ("seen", None, "missing seen"),
        ("kind", "disk", "unknown kind 'disk'"),
        ("phase", "drain", "unsupported phase 'drain'"),
        ("version", 2, "unknown version"),
        ("meta", [], "meta must be an object"),
        ("meta", {"rows": []}, "missing meta.rows array"),
        ("meta", {"rows": [{"us": -1}]},
         "meta.rows[0]: bad us -1 (want a non-negative number)"),
        ("meta", {"rows": [3]}, "meta.rows[0]: not an object"),
        ("tags", "a", "missing tags array"),
        ("tags", ["a", 2], "tags[1]: missing value"),
        ("free", None, "missing free array"),
        ("args", None, "args must be an object"),
    ])
    def test_each_rule_reports_its_own_problem(self, field, bad, problem):
        assert check_shape(dict(self.GOOD, **{field: bad}),
                           self.SPEC) == [problem]

    def test_missing_fields_are_problems_unless_optional(self):
        payload = dict(self.GOOD)
        del payload["ops"]
        assert check_shape(payload, self.SPEC) == \
            ["ops must be a non-negative int"]

    def test_root_type_problems(self):
        assert check_shape([], self.SPEC) == ["payload is not a JSON object"]
        assert check_shape(3, {}, what="snapshot is not an object") == \
            ["snapshot is not an object"]
        assert check_shape({}, ["str"], name="line") == \
            ["missing line array"]
        assert check_shape(["a", ""], ["str"], name="line") == \
            ["line[1]: missing value"]

    def test_shape_items_walks_only_the_objects(self):
        payload = {"cells": [{"us": 1}, 7, {"us": 2}]}
        assert shape_items(payload, "cells") == [
            ("cells[0]", {"us": 1}), ("cells[2]", {"us": 2})]
        assert shape_items(payload, "absent") == []
        assert shape_items([], "cells") == []
