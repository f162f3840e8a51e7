"""Fast-path regression gate: kernel optimisations must not move results.

The two-tier scheduler in ``repro.sim.core`` (microtask deque + heap) is a
pure wall-clock optimisation — every simulated timestamp, throughput figure
and RPC count must be bit-identical to the all-heap order, which lives on as
the test oracle in :mod:`tests.oracle`.  These tests pin that down at three
levels:

* a kernel-level trace on whole-microsecond delays (ties everywhere),
* full mdtest runs (objstat and mkdir) on all four systems,
* fig12 at quick scale, run twice and against the oracle.
"""

import pytest

from repro.bench.cluster import SYSTEMS, build_system
from repro.bench.harness import run_workload
from repro.experiments import get_experiment
from repro.sim.core import AnyOf, Simulator
from repro.sim.resources import Resource
from repro.workloads.mdtest import MdtestWorkload
from tests.oracle import AllHeapSimulator, request_timeout_hosts


def _kernel_trace(sim):
    """A scenario touching every fast path: zero-delay resumes, contended
    resources, AnyOf fan-out and interrupts.  Returns the (time, label)
    event trace."""
    resource = Resource(sim, capacity=2)
    trace = []

    def worker(i):
        for round_no in range(3):
            request = resource.request()
            yield request
            trace.append((sim.now, f"grant-{i}-{round_no}"))
            yield sim.timeout(i % 3)  # delay 0 exercises the deque
            resource.release(request)
        first = yield AnyOf(sim, [sim.timeout(5), sim.timeout(5),
                                  sim.timeout(2 + i % 2)])
        trace.append((sim.now, f"anyof-{i}-{first}"))

    def interrupter(victim):
        yield sim.timeout(4)
        victim.interrupt("poke")

    victims = [sim.process(worker(i)) for i in range(8)]
    sim.process(interrupter(victims[3]))
    with pytest.raises(Exception):
        sim.run()  # victim 3 does not catch the interrupt
    trace.append((sim.now, "end"))
    return trace


def _mdtest_fingerprint(system_name="mantle", sim_type=Simulator):
    """An objstat point and a shared-directory mkdir point (the write path
    is where same-timestamp ties between heap and deque entries happen)."""
    points = []
    for op, mode in (("objstat", "exclusive"), ("mkdir", "shared")):
        system = build_system(system_name, "quick")
        assert type(system.sim) is sim_type
        try:
            metrics = run_workload(system, MdtestWorkload(
                op, mode=mode, depth=8, items=6, num_clients=12))
        finally:
            system.shutdown()
        points.append((
            metrics.ops_completed,
            metrics.retries,
            round(metrics.duration_us, 6),
            {name: (rec.count, round(rec.mean, 9))
             for name, rec in sorted(metrics.latency.items())},
            {name: (rec.count, round(rec.mean, 9))
             for name, rec in sorted(metrics.rpc_rounds.items())},
        ))
    return points


def _fig12_rows():
    tables = get_experiment("fig12").run(scale="quick")
    return [tuple(row) for table in tables for row in table.rows]


class TestFastPathDeterminism:
    def test_kernel_trace_fast_equals_legacy(self):
        assert _kernel_trace(Simulator()) == _kernel_trace(
            AllHeapSimulator())

    def test_mdtest_metrics_identical_fast_vs_legacy(self, all_heap):
        for system_name in SYSTEMS:
            fast = _mdtest_fingerprint(system_name)
            with all_heap():
                legacy = _mdtest_fingerprint(system_name, AllHeapSimulator)
            assert fast == legacy, system_name

    def test_tracing_does_not_change_results(self, monkeypatch):
        """Span tracing is pure bookkeeping: identical simulated results."""
        monkeypatch.delenv("MANTLE_TRACE", raising=False)
        untraced = _mdtest_fingerprint()
        monkeypatch.setenv("MANTLE_TRACE", "1")
        traced = _mdtest_fingerprint()
        assert untraced == traced

    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_kernel_driven_paths_match_the_generator_reference(
            self, system_name, monkeypatch):
        """Untraced, unary RPCs and every CPU/disk charge are driven by the
        kernel; traced on request-then-timeout hosts, by the generators
        they replace (:mod:`tests.oracle`): identical results."""
        monkeypatch.delenv("MANTLE_TRACE", raising=False)
        untraced = _mdtest_fingerprint(system_name)
        monkeypatch.setenv("MANTLE_TRACE", "1")
        with request_timeout_hosts():
            reference = _mdtest_fingerprint(system_name)
        assert untraced == reference

    def test_telemetry_does_not_change_results(self, monkeypatch):
        """Windowed telemetry is pure bookkeeping: identical results."""
        monkeypatch.delenv("MANTLE_TELEMETRY", raising=False)
        off = _mdtest_fingerprint()
        monkeypatch.setenv("MANTLE_TELEMETRY", "1")
        on = _mdtest_fingerprint()
        assert off == on

    def test_fig12_quick_identical_across_runs_and_kernels(self, all_heap):
        first = _fig12_rows()
        second = _fig12_rows()
        assert first == second
        with all_heap():
            legacy = _fig12_rows()
        assert first == legacy
