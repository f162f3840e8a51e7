"""Extension (§5.3): availability timeline through an IndexNode failover.

The paper's fault-tolerance section argues that metadata-server failures
cost only a Raft re-election.  This experiment measures it: clients issue
lookups continuously, the leader is crashed mid-run, and op completions are
bucketed into time windows — showing full throughput before the crash, a
dip bounded by the election timeout, and recovery to full throughput after.

The run is traced end-to-end (:func:`~repro.experiments.base.instrumented_run`
attaches the tracer before the crash) and the winning candidacy's ``raft.election``
span is decomposed with :func:`~repro.sim.critpath.build_critpath`
(rooted at ``raft.election`` spans), so the report shows *where the unavailability
window went* — durable-vote fsync, vote-counting CPU, or waiting on the
wire for the quorum.
"""

from __future__ import annotations

from typing import List

from repro.bench.cluster import build_system
from repro.bench.report import Table
from repro.errors import MetadataError
from repro.experiments.base import instrumented_run, pick, register
from repro.sim.critpath import build_critpath
from repro.sim.stats import MetricSet, OpContext
from repro.sim.trace import CAT_RAFT
from repro.ops import make_op

_WINDOW_US = 25_000.0


@register("ext-failover", "Availability through leader failover (extension)",
          "lookups dip only for the election window after a leader crash, "
          "then recover fully")
def run(scale: str = "quick") -> List[Table]:
    clients = pick(scale, 24, 64)
    duration_us = 400_000.0
    crash_at_us = 120_000.0
    events: List[tuple] = []  # (time, ok)

    def build():
        system = build_system("mantle", "quick")
        system.bulk_mkdir("/w")
        system.bulk_create("/w/obj")
        return system

    def drive(system) -> MetricSet:
        sim = system.sim
        t0 = sim.now
        metrics = MetricSet()

        def client():
            while sim.now - t0 < duration_us:
                ctx = OpContext("objstat")
                try:
                    yield from system.perform(make_op("objstat", "/w/obj"),
                                              ctx, metrics)
                except MetadataError:
                    events.append((ctx.finish - t0, False))
                    yield sim.timeout(1_000)  # client retry pause
                else:
                    events.append((ctx.finish - t0, True))

        def assassin():
            yield sim.timeout(crash_at_us)
            leader = system.index_group.current_leader()
            if leader is not None:
                system.index_group.crash_node(leader.id)

        procs = [sim.process(client()) for _ in range(clients)]
        procs.append(sim.process(assassin()))
        sim.run_until(sim.all_of(procs))
        return metrics

    # Trace the failover (election spans included); the rig attaches after
    # the bulk namespace build so the ring holds only the measured run.
    record = instrumented_run(build, drive, ("tracer",))

    table = Table(
        "Extension: lookup completions per 25 ms window "
        f"(leader crashed at {crash_at_us / 1000:.0f} ms)",
        ["window start ms", "ok ops", "failed ops", "phase"])
    num_windows = int(duration_us / _WINDOW_US)
    recovered_at = None
    dipped = False
    pre_crash_rate = None
    for w in range(num_windows):
        lo, hi = w * _WINDOW_US, (w + 1) * _WINDOW_US
        ok = sum(1 for t, good in events if lo <= t < hi and good)
        bad = sum(1 for t, good in events if lo <= t < hi and not good)
        if hi <= crash_at_us:
            phase = "before crash"
            pre_crash_rate = ok if pre_crash_rate is None \
                else max(pre_crash_rate, ok)
        elif ok < 0.5 * (pre_crash_rate or 1):
            phase = "election window"
            dipped = True
        else:
            phase = "recovered"
            if dipped and recovered_at is None:
                recovered_at = lo
        table.add_row(round(lo / 1000, 1), ok, bad, phase)
    if recovered_at is not None:
        table.add_note(
            f"service recovered ~{(recovered_at - crash_at_us) / 1000:.0f}"
            " ms after the crash (election timeout is 50-100 ms)")

    # Decompose the winning candidacy: what gated the new leader's
    # election, microsecond by microsecond.
    crit = build_critpath(
        record.index, name="failover-election",
        root_where=lambda span: (span.category == CAT_RAFT
                                 and span.name == "raft.election"))
    shares = crit.shares()
    election = Table(
        "Extension: critical path of the winning election",
        ["host", "frame", "kind", "gated us", "share"])
    for (host, frame, kind), us in crit.top_gating(10):
        election.add_row(host or "-", frame, kind, round(us, 1),
                         f"{shares[(host, frame, kind)] * 100:.1f}%")
    election.add_note(
        f"{crit.ops} winning candidac{'y' if crit.ops == 1 else 'ies'}"
        f" traced; {crit.mean_latency_us / 1000:.2f} ms from candidacy"
        " to leadership (idle = waiting on the wire for votes)")
    for line in crit.render_exemplar():
        election.add_note(line)
    return [table, election]
