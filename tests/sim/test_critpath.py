"""Critical-path extraction invariants (``repro.sim.critpath``).

The guarantees that make the gating profile trustworthy are pinned here:

* per-op conservation — the extracted path segments of every op sum to
  that op's end-to-end duration exactly, so aggregated center shares sum
  to 100% of client latency,
* fan-out folding — within a group of time-overlapping ``join_to``
  siblings only the gating leg (last to finish) stays on the path, while
  serial (back-to-back) siblings all stay,
* segment decomposition — charges verbatim, queue refined by resource,
  blocked-on edges capped by the idle residual, the rest ``idle``,
* exports are schema-valid and byte-identical to a run on the all-heap
  reference scheduler (:mod:`tests.oracle`), and
* extraction is pure bookkeeping: simulated results with tracing on are
  bit-identical to an uninstrumented run.
"""

import json

import pytest

from repro.experiments.base import mdtest_metrics, mdtest_run
from repro.sim.core import Simulator
from repro.sim.critpath import (
    UNKNOWN_CULPRIT,
    build_critpath,
    collapse_kind,
    component_of,
    contrast_with_profile,
    critpath_from_tracer,
    gating_walk,
    predict_speedup,
    predict_speedup_corrected,
    render_blame_exemplar,
    to_blame_payload,
    to_critpath_payload,
    validate_blame,
    validate_critpath,
)
from repro.sim.host import CostOverrides
from repro.sim.profile import profile_from_tracer
from repro.sim.telemetry import Telemetry
from repro.sim.trace import (CAT_OP, CAT_PHASE, CAT_RPC, SpanIndex, Tracer,
                             _fold_children)
from tests.oracle import AllHeapSimulator


class _Interval:
    """Minimal span stand-in for the folding unit tests."""

    def __init__(self, span_id, start_us, end_us):
        self.span_id = span_id
        self.start_us = start_us
        self.end_us = end_us


class TestFoldChildren:
    def test_serial_siblings_all_stay(self):
        kids = [_Interval(1, 0, 10), _Interval(2, 10, 25), _Interval(3, 30, 40)]
        assert [s.span_id for s in _fold_children(kids)] == [1, 2, 3]

    def test_overlapping_group_keeps_last_finisher(self):
        kids = [_Interval(1, 0, 30), _Interval(2, 5, 50), _Interval(3, 10, 40)]
        assert [s.span_id for s in _fold_children(kids)] == [2]

    def test_back_to_back_is_serial_not_overlap(self):
        kids = [_Interval(1, 0, 10), _Interval(2, 10, 20)]
        assert [s.span_id for s in _fold_children(kids)] == [1, 2]

    def test_tied_end_breaks_on_span_id(self):
        kids = [_Interval(4, 0, 30), _Interval(7, 0, 30)]
        assert [s.span_id for s in _fold_children(kids)] == [7]

    def test_mixed_groups(self):
        kids = [_Interval(1, 0, 20), _Interval(2, 10, 30),  # group -> 2
                _Interval(3, 30, 40),                       # serial
                _Interval(4, 50, 90), _Interval(5, 55, 70)]  # group -> 4
        assert [s.span_id for s in _fold_children(kids)] == [2, 3, 4]


class TestSyntheticExtraction:
    def test_segments_conserve_and_refine_queue(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.charge("cpu", 10.0, "proxy-0")
        child = tracer.begin("tafdb.txn", 10.0, CAT_PHASE, parent=root)
        tracer.charge("queue", 30.0, "tafdb-0", resource="disk")
        tracer.charge("fsync", 40.0, "tafdb-0")
        tracer.end(child, 90.0)
        tracer.end(root, 100.0)
        crit = build_critpath(SpanIndex(tracer.spans))
        assert crit.ops == 1 and crit.total_us == 100.0
        assert crit.conservation_error() < 1e-12
        assert crit.gated[("tafdb-0", "tafdb.txn", "queue:disk")] == 30.0
        assert crit.gated[("tafdb-0", "tafdb.txn", "fsync")] == 40.0
        assert crit.gated[("proxy-0", "mkdir", "cpu")] == 10.0
        # 100 total - 10 charged on root - 80 child span = 10 root idle,
        # plus the child's 10us of unexplained self-time.
        assert crit.gated[(None, "mkdir", "idle")] == 10.0
        assert crit.gated[(None, "tafdb.txn", "idle")] == 10.0

    def test_blocked_edges_capped_by_idle_residual(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.charge("cpu", 60.0, "indexnode-1")
        # 80us of blocked causes claimed, but only 40us unexplained:
        # the edges scale down to fit (they never displace real charges).
        tracer.charge_blocked("raft.flush", "fsync", 40.0, "indexnode-1")
        tracer.charge_blocked("raft.replicate", "wire", 40.0, "indexnode-1")
        tracer.end(root, 100.0)
        crit = build_critpath(SpanIndex(tracer.spans))
        assert crit.conservation_error() < 1e-12
        assert crit.gated[("indexnode-1", "raft.flush", "fsync")] == 20.0
        assert crit.gated[("indexnode-1", "raft.replicate", "wire")] == 20.0
        assert (None, "mkdir", "idle") not in crit.gated

    def test_contrast_excludes_every_blocked_cause(self):
        """The contrast drops whatever centers ``Span.blocked`` landed on,
        so a cause named nowhere in critpath is excluded too."""
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.charge("fsync", 30.0, "tafdb-0")
        tracer.charge_blocked("tafdb.group_commit", "fsync", 20.0,
                              "tafdb-0")
        tracer.end(root, 100.0)
        crit = critpath_from_tracer(tracer)
        assert crit.gated[("tafdb-0", "tafdb.group_commit", "fsync")] == 20.0
        (row,) = [row for row in contrast_with_profile(
                      crit, profile_from_tracer(tracer))
                  if (row.host, row.kind) == ("tafdb-0", "fsync")]
        assert row.gated_us == row.total_us == 30.0

    def test_join_to_leg_folds_into_waiting_op(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        wait = tracer.begin("tafdb.prepare", 10.0, CAT_PHASE, parent=root)
        # Two parallel legs, dynamically rooted (as spawned processes are);
        # only the 10..60 one gates the join.
        for start, end in ((10.0, 40.0), (10.0, 60.0)):
            leg = Tracer._mk = tracer.begin("fanout:prepare", start, CAT_RPC)
            leg.dyn_parent_id = 0
            leg.annotate(join_to=wait.span_id)
            tracer.charge("wire", end - start, "tafdb-0")
            tracer.end(leg, end)
        tracer.end(wait, 60.0)
        tracer.end(root, 70.0)
        crit = build_critpath(SpanIndex(tracer.spans))
        assert crit.ops == 1
        assert crit.conservation_error() < 1e-12
        # Gating leg contributes its 50us of wire; the 30us leg is off-path.
        assert crit.gated[("tafdb-0", "fanout:prepare", "wire")] == 50.0
        rendered = "\n".join(crit.render_exemplar())
        assert "fanout:prepare" in rendered

    def test_failed_ops_are_counted_not_folded(self):
        tracer = Tracer()
        ok = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.end(ok, 50.0)
        bad = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.end(bad, 400.0, ok=False)
        crit = build_critpath(SpanIndex(tracer.spans))
        assert crit.ops == 1 and crit.op_failures == 1
        assert crit.total_us == 50.0

    def test_collapse_kind(self):
        assert collapse_kind("queue:disk") == "queue"
        assert collapse_kind("queue") == "queue"
        assert collapse_kind("fsync") == "fsync"


class TestComponentMapping:
    def test_kinds_map_to_override_components(self):
        assert component_of("tafdb-1", "rpc_commit", "fsync") == "tafdb.fsync"
        assert component_of("indexnode-0", "raft.flush",
                            "fsync") == "raft.fsync"
        assert component_of("proxy-2", "objstat", "cpu") == "proxy.cpu"
        assert component_of("indexnode-0", "index.lookup",
                            "cpu") == "index.cpu"
        assert component_of("indexnode-0", "raft.msg:AppendEntries",
                            "cpu") == "raft.cpu"
        assert component_of("any", "rpc:lookup", "wire") == "net.rtt"
        assert component_of("indexnode-0", "raft.read_barrier",
                            "wire") == "net.rtt"
        # Wire-only now that follower work is split out (AppendReply
        # piggyback): the replicate remainder scales with the network.
        assert component_of("indexnode-0", "raft.replicate",
                            "wire") == "net.rtt"
        assert component_of("indexnode-1", "raft.follower_flush",
                            "fsync") == "raft.fsync"
        assert component_of("indexnode-1", "raft.follower_apply",
                            "cpu") == "raft.cpu"

    def test_unmappable_centers_return_none(self):
        assert component_of(None, "mkdir", "idle") is None
        assert component_of("indexnode-0", "raft.queue", "queue") is None
        assert component_of("indexnode-0", "raft.commit", "wire") is None
        assert component_of("tafdb-0", "rpc_prepare", "queue:latch") is None

    def test_queue_maps_to_resource_component(self):
        assert component_of("tafdb-0", "rpc_commit",
                            "queue:disk") == "tafdb.fsync"


class TestPredictSpeedup:
    def _crit(self):
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        tracer.charge("fsync", 40.0, "tafdb-0")
        tracer.charge("cpu", 40.0, "indexnode-0")
        tracer.end(root, 100.0)  # 20us idle
        return build_critpath(SpanIndex(tracer.spans))

    def test_first_order_gain(self):
        crit = self._crit()
        pred = predict_speedup(crit, CostOverrides.of(**{"tafdb.fsync": 2.0}))
        assert pred.gain_us_per_op == pytest.approx(20.0)
        assert pred.predicted_mean_us == pytest.approx(80.0)
        assert pred.predicted_latency_delta_frac == pytest.approx(0.20)
        assert pred.predicted_throughput_ratio == pytest.approx(100 / 80)
        assert pred.matched_us_per_op == {"tafdb.fsync": 40.0}

    def test_off_path_override_predicts_zero(self):
        crit = self._crit()
        pred = predict_speedup(crit, CostOverrides.of(**{"net.rtt": 4.0}))
        assert pred.gain_us_per_op == 0.0
        assert pred.predicted_mean_us == crit.mean_latency_us


class TestBuildBlame:
    """Occupant-tagged queue segments fold into a conserving blame matrix."""

    def _crit(self):
        tracer = Tracer()
        root = tracer.begin("objstat", 0.0, CAT_OP)
        root.annotate(tenant="victim")
        # One disk wait split over two occupants (3:1), one untagged
        # cpu wait, and a real charge that must not be blamed.
        tracer.charge("queue", 30.0, "tafdb-0", resource="disk",
                      by=("mkdir", "storm"))
        tracer.charge("queue", 10.0, "tafdb-0", resource="disk",
                      by=("objstat", "victim"))
        tracer.charge("queue", 20.0, "proxy-0", resource="cpu")
        tracer.charge("cpu", 15.0, "proxy-0")
        tracer.end(root, 100.0)
        return build_critpath(SpanIndex(tracer.spans), name="blame-unit")

    def test_cells_conserve_queue_segments_exactly(self):
        blame = self._crit().blame
        assert blame.ops == 1
        assert blame.total_queue_us == pytest.approx(60.0)
        assert blame.conservation_error() <= 1e-9
        assert blame.queue_share == pytest.approx(0.60)
        victim = ("objstat", "victim")
        assert blame.cells[victim + ("mkdir", "storm", "disk", "tafdb-0")] \
            == pytest.approx(30.0)
        assert blame.cells[victim + ("objstat", "victim", "disk",
                                     "tafdb-0")] == pytest.approx(10.0)
        assert blame.cells[victim + UNKNOWN_CULPRIT + ("cpu", "proxy-0")] \
            == pytest.approx(20.0)

    def test_rollups(self):
        blame = self._crit().blame
        (top, us) = blame.top_culprits(1)[0]
        assert top == ("mkdir", "storm", "disk")
        assert us == pytest.approx(30.0)
        matrix = blame.tenant_matrix()
        assert matrix[("victim", "storm")] == pytest.approx(30.0)
        assert matrix[("victim", "victim")] == pytest.approx(10.0)
        assert matrix[("victim", None)] == pytest.approx(20.0)
        # Cross-op/tenant blame only: self-contention (10us) excluded.
        assert blame.interference_us() == pytest.approx(50.0)
        assert blame.victim_totals()[("objstat", "victim")] \
            == pytest.approx(60.0)

    def test_exemplar_names_culprits(self):
        crit = self._crit()
        lines = render_blame_exemplar(crit)
        text = "\n".join(lines)
        assert "objstat [tenant victim]" in text
        assert "<-" in text
        assert "mkdir/storm 75%" in text

    def test_blame_payload_round_trip_validates(self):
        crit = self._crit()
        payload = to_blame_payload(crit)
        assert validate_blame(payload) == []
        assert json.loads(json.dumps(payload)) == payload
        assert payload["conservation_error"] <= 1e-9

    def test_validator_flags_broken_payloads(self):
        assert validate_blame([]) == ["payload is not a JSON object"]
        crit = self._crit()
        payload = to_blame_payload(crit)
        payload["cells"][0]["us"] *= 10  # breaks conservation
        assert any("conserv" in p or "cells" in p
                   for p in validate_blame(payload))
        payload = to_blame_payload(crit)
        del payload["cells"]
        assert any("cells" in p for p in validate_blame(payload))


class _FakeProfile:
    def __init__(self, centers):
        self.centers = centers


class TestPredictSpeedupCorrected:
    """The bottleneck-law floor: stations from busy counters, demands
    scaled by the override's saved share, floor = clients x max demand."""

    def _inputs(self):
        crit = TestPredictSpeedup()._crit()  # 100us op: fsync 40, cpu 40
        profile = _FakeProfile({
            ("tafdb-0", "mkdir", "fsync"): 40.0,
            ("indexnode-0", "mkdir", "cpu"): 40.0,
        })
        telemetry = Telemetry()
        telemetry.counter("host.disk_busy_us", "tafdb-0",
                          capacity=1.0).total = 40.0
        telemetry.counter("host.cpu_busy_us", "indexnode-0",
                          capacity=2.0).total = 60.0
        overrides = CostOverrides.of(**{"tafdb.fsync": 2.0})
        return crit, overrides, profile, telemetry

    def test_station_demands_and_saved_share(self):
        crit, overrides, profile, telemetry = self._inputs()
        corr = predict_speedup_corrected(crit, overrides, profile,
                                         telemetry, clients=2)
        by_key = {(s.host, s.resource): s for s in corr.stations}
        disk = by_key[("tafdb-0", "disk")]
        assert disk.demand_us == pytest.approx(40.0)
        assert disk.scaled_demand_us == pytest.approx(20.0)  # fsync halved
        assert disk.utilization == pytest.approx(0.40)  # 40us busy / 100us
        cpu = by_key[("indexnode-0", "cpu")]
        assert cpu.demand_us == pytest.approx(30.0)  # 60 / (1 op x 2 cores)
        assert cpu.scaled_demand_us == pytest.approx(30.0)  # untouched
        assert corr.bottleneck().host == "indexnode-0"

    def test_floor_binds_only_past_the_knee(self):
        crit, overrides, profile, telemetry = self._inputs()
        # 2 clients: floor 2 x 30 = 60 < slack's 80 -> slack wins.
        low = predict_speedup_corrected(crit, overrides, profile,
                                        telemetry, clients=2)
        assert low.bottleneck_mean_us == pytest.approx(60.0)
        assert low.predicted_mean_us == pytest.approx(80.0)
        assert not low.bound_binding
        # 5 clients: floor 5 x 30 = 150 > 80 -> the floor binds.
        high = predict_speedup_corrected(crit, overrides, profile,
                                         telemetry, clients=5)
        assert high.bottleneck_mean_us == pytest.approx(150.0)
        assert high.predicted_mean_us == pytest.approx(150.0)
        assert high.bound_binding


class TestPayloadAndValidator:
    def test_round_trip_validates(self):
        crit = TestPredictSpeedup()._crit()
        payload = to_critpath_payload(crit)
        assert validate_critpath(payload) == []
        assert json.loads(json.dumps(payload)) == payload
        shares = [c["share"] for c in payload["centers"]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-3)

    def test_validator_flags_broken_payloads(self):
        assert validate_critpath([]) == ["payload is not a JSON object"]
        crit = TestPredictSpeedup()._crit()
        payload = to_critpath_payload(crit)
        payload["centers"][0]["share"] = 0.9  # breaks the sum-to-1 check
        assert any("shares sum" in p for p in validate_critpath(payload))
        payload = to_critpath_payload(crit)
        payload["centers"][0]["gated_us"] = payload["total_us"] * 2
        assert any("exceeds total_us" in p
                   for p in validate_critpath(payload))
        payload = to_critpath_payload(crit)
        payload["exemplar"] = "not a list"
        assert any("exemplar" in p for p in validate_critpath(payload))
        payload = to_critpath_payload(crit)
        del payload["centers"]
        assert any("centers" in p for p in validate_critpath(payload))


def _traced_run(op="mkdir", **kw):
    kw.setdefault("mode", "shared")
    kw.setdefault("clients", 8)
    kw.setdefault("items", 4)
    record = mdtest_run("mantle", op, ("tracer", "telemetry"), **kw)
    return record.metrics, record.tracer, record.telemetry


class TestClusterInvariants:
    """The load-bearing invariants on a real traced cluster."""

    def test_paths_conserve_op_latency(self):
        _m, tracer, _t = _traced_run()
        crit = critpath_from_tracer(tracer)
        assert crit.ops > 0
        assert crit.conservation_error() < 1e-9
        for root, path_us in crit.root_paths:
            assert path_us == pytest.approx(root.duration_us, rel=1e-9)
        shares = crit.shares()
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)

    def test_write_path_sees_fsync_and_fanout(self):
        _m, tracer, _t = _traced_run()
        crit = critpath_from_tracer(tracer)
        kinds = crit.gated_by_kind()
        assert kinds.get("fsync", 0.0) > 0.0
        # 2PC legs join the tree via join_to edges; every fan-out group
        # folds to exactly one gating leg per disjoint time interval.
        folded = [span for root, _us in crit.root_paths
                  for span, _segments in gating_walk(crit.index, root)
                  if span.name.startswith("fanout:")]
        assert folded, "no fan-out legs folded into any op tree"

    def test_gated_never_exceeds_attributed_total(self):
        _m, tracer, _t = _traced_run()
        crit = critpath_from_tracer(tracer)
        contrast = contrast_with_profile(
            crit, profile_from_tracer(tracer))
        assert contrast
        for row in contrast:
            assert row.gated_us <= row.total_us * (1 + 1e-9) + 1e-6
            assert 0.0 <= row.gated_frac <= 1.0
        # Replication cost exists that no op's path runs through.
        assert any(row.offpath_us > 0.0 for row in contrast)

    def test_export_byte_identical_across_kernels(self, all_heap):
        def export(sim_type):
            _m, tracer, _t = _traced_run()
            assert type(tracer._sim) is sim_type
            crit = critpath_from_tracer(tracer, name="kernel-check")
            contrast = contrast_with_profile(
                crit, profile_from_tracer(tracer))
            return json.dumps(to_critpath_payload(crit, contrast),
                              sort_keys=True)

        product = export(Simulator)
        with all_heap():
            oracle = export(AllHeapSimulator)
        assert product == oracle

    def test_tracing_is_pure_bookkeeping(self):
        plain = mdtest_metrics("mantle", "mkdir", mode="shared",
                               clients=8, items=4)
        traced, _tracer, _t = _traced_run()
        assert plain.mean_latency_us("mkdir") == \
            traced.mean_latency_us("mkdir")
        assert plain.ops_completed == traced.ops_completed

    def test_replication_edge_splits_follower_phases(self):
        """The quorum wait decomposes: the follower's durable flush and
        apply are attributed to the *follower's* host, and what remains on
        raft.replicate is pure wire time."""
        _m, tracer, _t = _traced_run()
        crit = critpath_from_tracer(tracer)
        follower_flush = [(c, us) for c, us in crit.gated.items()
                          if c[1] == "raft.follower_flush"]
        assert follower_flush, "no follower flush gating recorded"
        assert all(c[2] == "fsync" for c, _us in follower_flush)
        leader_hosts = {c[0] for c in crit.gated if c[1] == "raft.flush"}
        follower_hosts = {c[0] for c, _us in follower_flush}
        assert follower_hosts and not (follower_hosts & leader_hosts)
        assert all(c[2] == "wire" for c in crit.gated
                   if c[1] == "raft.replicate")

    def test_replica_reads_charge_the_read_barrier(self):
        """Follower lookups must not show the commitIndex round trip as
        idle — the raft.read_barrier wire edge owns it."""
        _m, tracer, _t = _traced_run(op="objstat", mode="exclusive",
                                     clients=32, items=4, depth=6)
        crit = critpath_from_tracer(tracer)
        barrier = [(c, us) for c, us in crit.gated.items()
                   if c[1] == "raft.read_barrier"]
        assert barrier, "no read-barrier gating recorded"
        assert all(c[2] == "wire" for c, _us in barrier)
        assert sum(us for _c, us in barrier) > 0.0
