"""Cost profiler invariants: conservation, attribution, exports, diffs.

The load-bearing guarantees (``repro.sim.profile``'s docstring makes them
explicit) are pinned here:

* self-time telescopes — the sum of self-times over a dynamic span tree
  equals the sum of root durations *exactly*,
* charges land on the innermost open span of the charging process, and
  charges with no span open accrue to the unattributed bucket instead of
  leaking into a neighbouring span,
* both flame-graph export formats satisfy their validators and match a
  run on the all-heap reference scheduler,
* profiling is pure bookkeeping: simulated results with it on are
  bit-identical to an uninstrumented run, and
* profiler CPU reconciles exactly with telemetry's busy counters.
"""

import pytest

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.experiments.base import Case, run_case
from repro.sim.profile import (
    UNATTRIBUTED_FRAME,
    build_profile,
    diff_profiles,
    to_folded,
    to_speedscope,
    validate_folded,
    validate_speedscope,
)
from repro.sim.trace import CAT_OP, CAT_PHASE, CAT_RPC, SpanIndex, Tracer
from repro.workloads.mdtest import MdtestWorkload
from tests.oracle import AllHeapSimulator


def _profile_of(tracer):
    """Fold one tracer's ring and unattributed bucket into a profile."""
    return build_profile(SpanIndex(tracer.spans), dict(tracer.unattributed))


def _tree_tracer():
    """root[0,100] > child[10,40] > grandchild[20,30], sibling[50,90].

    An unbound tracer degrades to one shared span stack, which is exactly
    what a single-process synthetic tree needs.
    """
    tracer = Tracer()
    root = tracer.begin("objstat", 0.0, CAT_OP)
    child = tracer.begin("lookup", 10.0, CAT_PHASE, parent=root)
    grandchild = tracer.begin("rpc:lookup", 20.0, CAT_RPC, parent=child)
    tracer.end(grandchild, 30.0)
    tracer.end(child, 40.0)
    sibling = tracer.begin("execution", 50.0, CAT_PHASE, parent=root)
    tracer.end(sibling, 90.0)
    tracer.end(root, 100.0)
    return tracer


class TestSelfTimeConservation:
    def test_synthetic_tree_telescopes_exactly(self):
        profile = _profile_of(_tree_tracer())
        assert profile.total_root_us == 100.0
        assert profile.total_self_us == 100.0
        assert profile.conservation_error() == 0.0
        self_by_frame = {f: fc.self_us for f, fc in profile.frames.items()}
        # root 100 - (30 + 40), lookup 30 - 10, leaf 10, execution 40.
        assert self_by_frame == {"objstat": 30.0, "lookup": 20.0,
                                 "rpc:lookup": 10.0, "execution": 40.0}

    def test_dynamic_parent_differs_from_declared(self):
        """RPCs declare the op root; the dynamic parent is the open phase."""
        tracer = Tracer()
        root = tracer.begin("mkdir", 0.0, CAT_OP)
        phase = tracer.begin("lookup", 1.0, CAT_PHASE, parent=root)
        rpc = tracer.begin("rpc:lookup", 2.0, CAT_RPC, parent=root)
        assert rpc.parent_id == root.span_id
        assert rpc.dyn_parent_id == phase.span_id
        tracer.end(rpc, 3.0)
        tracer.end(phase, 4.0)
        tracer.end(root, 5.0)
        profile = _profile_of(tracer)
        assert profile.conservation_error() == 0.0
        assert ("mkdir", "lookup", "rpc:lookup") in \
            {stack for stack, _kind in profile.stacks}

    def test_leaked_child_is_truncated_on_root_end(self):
        tracer = Tracer()
        root = tracer.begin("create", 0.0, CAT_OP)
        leaked = tracer.begin("tafdb.txn", 1.0, "txn", parent=root)
        assert leaked.end_us is None
        tracer.end(root, 10.0, ok=False)  # exception unwound past the child
        follow_up = tracer.begin("create", 20.0, CAT_OP)
        assert follow_up.dyn_parent_id == 0  # stack healed, new root
        tracer.end(follow_up, 25.0)
        profile = _profile_of(tracer)
        assert profile.ops == 1 and profile.op_failures == 1
        assert profile.conservation_error() == 0.0


class TestChargeAttribution:
    def test_charges_land_on_innermost_span(self):
        tracer = Tracer()
        root = tracer.begin("objstat", 0.0, CAT_OP)
        inner = tracer.begin("rpc_lookup", 2.0, "handler", parent=root,
                             host="index0")
        tracer.charge("cpu", 5.0, "index0")
        tracer.end(inner, 10.0)
        tracer.charge("wire", 3.0, "index0")  # lands on the root now
        tracer.end(root, 20.0)
        assert inner.costs == {("cpu", "index0"): 5.0}
        assert root.costs == {("wire", "index0"): 3.0}
        profile = _profile_of(tracer)
        kinds = profile.cost_by_kind()
        assert kinds["cpu"] == 5.0 and kinds["wire"] == 3.0
        # idle residual fills the rest of the tree's 20us exactly.
        assert kinds["idle"] == pytest.approx(12.0)

    def test_charge_with_no_open_span_is_unattributed(self):
        tracer = Tracer()
        tracer.charge("cpu", 7.0, "bg0")
        assert tracer.unattributed == {("bg0", "cpu"): 7.0}
        profile = _profile_of(tracer)
        assert profile.centers[("bg0", UNATTRIBUTED_FRAME, "cpu")] == 7.0

    def test_zero_and_negative_charges_ignored(self):
        tracer = Tracer()
        tracer.charge("cpu", 0.0, "h0")
        tracer.charge("cpu", -1.0, "h0")
        assert tracer.unattributed == {}


class TestExports:
    def test_folded_lines_pass_validator(self):
        tracer = _tree_tracer()
        tracer.charge("cpu", 1.0, "h0")  # unattributed tail line too
        profile = _profile_of(tracer)
        lines = to_folded(profile)
        assert lines and validate_folded(lines) == []
        assert lines == sorted(lines)
        assert any(line.startswith("objstat;lookup;rpc:lookup;[idle] ")
                   for line in lines)

    def test_folded_validator_flags_malformed_lines(self):
        problems = validate_folded([
            "no_value_field",
            "a;b 0",
            "with space;b 3",
            "a;;b 4",
            "",
        ])
        assert len(problems) == 5

    def test_speedscope_payload_passes_validator(self):
        payload = to_speedscope(_profile_of(_tree_tracer()))
        assert validate_speedscope(payload) == []
        prof = payload["profiles"][0]
        assert prof["endValue"] == sum(prof["weights"])

    def test_speedscope_validator_flags_corruption(self):
        payload = to_speedscope(_profile_of(_tree_tracer()))
        assert validate_speedscope({"nope": 1})
        broken = to_speedscope(_profile_of(_tree_tracer()))
        broken["$schema"] = "https://elsewhere.example/schema.json"
        assert validate_speedscope(broken)
        broken = to_speedscope(_profile_of(_tree_tracer()))
        broken["profiles"][0]["weights"].append(1)
        assert validate_speedscope(broken)
        broken = to_speedscope(_profile_of(_tree_tracer()))
        broken["profiles"][0]["samples"][0][0] = 10_000
        assert validate_speedscope(broken)
        broken = to_speedscope(_profile_of(_tree_tracer()))
        broken["profiles"][0]["weights"][0] = -5
        assert validate_speedscope(broken)
        assert validate_speedscope(payload) == []  # untouched copy still ok


class TestDiffProfiles:
    def _profile(self, roots, cpu_each, wire_each=0.0):
        tracer = Tracer()
        at = 0.0
        for _ in range(roots):
            root = tracer.begin("objstat", at, CAT_OP)
            tracer.charge("cpu", cpu_each, "h0")
            if wire_each:
                tracer.charge("wire", wire_each, "h1")
            tracer.end(root, at + cpu_each + wire_each)
            at += 1000.0
        return _profile_of(tracer)

    def test_aligned_per_op_deltas(self):
        base = self._profile(roots=1, cpu_each=100.0)
        other = self._profile(roots=2, cpu_each=150.0, wire_each=50.0)
        rows = {(r.frame, r.kind): r for r in diff_profiles(base, other)}
        cpu = rows[("objstat", "cpu")]
        assert cpu.base_us_per_op == 100.0
        assert cpu.other_us_per_op == 150.0
        assert cpu.delta_us_per_op == 50.0
        wire = rows[("objstat", "wire")]
        assert wire.base_us_per_op == 0.0 and wire.delta_us_per_op == 50.0
        assert wire.delta_spans_per_op == 0.0  # one root span per op both

    def test_rows_sorted_by_absolute_delta(self):
        base = self._profile(roots=1, cpu_each=100.0)
        other = self._profile(roots=1, cpu_each=10.0, wire_each=500.0)
        rows = diff_profiles(base, other)
        deltas = [abs(r.delta_us_per_op) for r in rows]
        assert deltas == sorted(deltas, reverse=True)


def _profiled_run(clients=8, items=4, depth=6):
    record = run_case(Case("objstat", "mantle", "objstat", depth=depth),
                      "quick", ("tracer", "telemetry"), clients=clients,
                      items=items)
    return record.metrics, record.tracer, record.telemetry


class TestProfiledRunInvariants:
    def test_real_run_conserves_self_time(self):
        _metrics, tracer, _telemetry = _profiled_run()
        profile = _profile_of(tracer)
        assert profile.span_count > 0 and profile.ops > 0
        assert profile.conservation_error() < 1e-12
        assert all(fc.self_us >= 0.0 for fc in profile.frames.values())

    def test_cpu_reconciles_with_telemetry_exactly(self):
        _metrics, tracer, telemetry = _profiled_run()
        profile = _profile_of(tracer)
        by_host = profile.cpu_by_host()
        hosts = telemetry.hosts("host.cpu_busy_us")
        assert hosts  # the workload must have burned CPU somewhere
        for host in hosts:
            expected = telemetry.find("host.cpu_busy_us", host).total
            assert by_host.get(host, 0.0) == pytest.approx(expected,
                                                           rel=1e-12)

    def test_folded_output_identical_across_kernels(self, all_heap):
        _m, tracer, _t = _profiled_run()
        fast = to_folded(_profile_of(tracer))
        with all_heap():
            _m, tracer, _t = _profiled_run()
        assert type(tracer._sim) is AllHeapSimulator
        legacy = to_folded(_profile_of(tracer))
        assert fast == legacy
        assert validate_folded(fast) == []


def _fingerprint(metrics):
    return (
        metrics.ops_completed,
        metrics.retries,
        round(metrics.duration_us, 6),
        {op: (rec.count, round(rec.mean, 9))
         for op, rec in sorted(metrics.latency.items())},
        {op: (rec.count, round(rec.mean, 9))
         for op, rec in sorted(metrics.rpc_rounds.items())},
    )


class TestProfilingIsPureBookkeeping:
    def test_results_bit_identical_profiling_on_vs_off(self):
        plain = run_case(Case("objstat", "mantle", "objstat", depth=6),
                         "quick", clients=8, items=4).metrics
        profiled, _tracer, _telemetry = _profiled_run()
        assert _fingerprint(plain) == _fingerprint(profiled)

    def test_explicit_tracer_matches_env_enabled_run(self, monkeypatch):
        """MANTLE_TRACE-constructed tracers are bound too, so the charge
        path is live there as well — and still changes nothing."""
        monkeypatch.setenv("MANTLE_TRACE", "1")
        system = build_system("mantle", "quick")
        try:
            assert system.sim.tracer.enabled
            assert system.sim.tracer._sim is system.sim
            metrics = run_workload(system, MdtestWorkload(
                "objstat", depth=6, items=4, num_clients=8))
            profile = build_profile(SpanIndex(system.sim.tracer.spans),
                                    dict(system.sim.tracer.unattributed))
        finally:
            system.shutdown()
        monkeypatch.delenv("MANTLE_TRACE")
        plain = run_case(Case("objstat", "mantle", "objstat", depth=6),
                         "quick", clients=8, items=4).metrics
        assert _fingerprint(metrics) == _fingerprint(plain)
        assert profile.conservation_error() < 1e-12
