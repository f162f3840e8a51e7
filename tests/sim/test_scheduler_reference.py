"""Randomized differential stress: the product scheduler vs the all-heap
oracle (:mod:`tests.oracle`).

Each seed expands into a scenario *plan* — plain data: hosts, servers,
client scripts, store ping-pongs, interrupts, standing watchdogs — before
any simulator exists, so both schedulers replay the identical workload.  The
executed event trace (timestamps, actors, values) and the final clock must
be bit-identical; any divergence is an ordering bug in the two-tier
scheduler, and the seed reproduces it.

The two-tier rule (due heap entries, then the deque, then advance) only
decides anything when a due heap entry and deque entries share a timestamp,
which continuous delays almost never produce.  So odd seeds round every
delay to whole microseconds and switch jitter off — ties everywhere — and
seeds with bit 1 set drive the plan through ``run_until(all_of(procs))``,
the loop behind every figure, instead of ``run()``.
"""

import random

import pytest

from repro.sim.core import AnyOf, Interrupt, Simulator
from repro.sim.host import Host
from repro.sim.network import Network, Server
from repro.sim.resources import Store
from tests.oracle import AllHeapSimulator


#: Four plan shapes (continuous/whole-us delays x run/run_until), 30 seeds each.
SEEDS = 120


class _Echo(Server):
    def __init__(self, host, work_us):
        super().__init__(host)
        self.work_us = work_us

    def rpc_echo(self, value):
        yield from self.host.work(self.work_us)
        return value


def _scenario(seed):
    """Expand ``seed`` into a scheduler-independent scenario plan."""
    rng = random.Random(seed)
    digits = 0 if seed & 1 else 3  # whole microseconds on odd seeds

    def delay(lo, hi):
        return round(rng.uniform(lo, hi), digits)

    num_hosts = rng.randint(2, 6)
    plan = {
        "num_hosts": num_hosts,
        "cores": [rng.randint(1, 4) for _ in range(num_hosts)],
        "work_us": [delay(1.0, 20.0) for _ in range(num_hosts)],
        "jitter": rng.choice([0.0, 0.0, 0.25]) if digits else 0.0,
        "net_seed": rng.randint(0, 10_000),
        "until_all": bool(seed & 2),
        "watchdogs": [delay(500.0, 2_000.0)
                      for _ in range(rng.randint(0, 12))],
        "clients": [],
        "pairs": [],
        "interrupts": [],
    }
    for cid in range(rng.randint(2, 8)):
        ops = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.choice(["sleep", "work", "rpc", "rpc", "fsync",
                               "anyof"])
            if kind == "sleep":
                ops.append(("sleep", delay(0.0, 30.0)))
            elif kind == "work":
                ops.append(("work", delay(0.5, 10.0)))
            elif kind == "rpc":
                ops.append(("rpc", rng.randrange(num_hosts)))
            elif kind == "fsync":
                ops.append(("fsync",))
            else:
                ops.append(("anyof", sorted(
                    delay(1.0, 25.0) for _ in range(rng.randint(2, 3)))))
        plan["clients"].append({
            "home": rng.randrange(num_hosts),
            "phase": delay(0.0, 10.0),
            "ops": ops,
        })
    for pid in range(rng.randint(0, 2)):
        plan["pairs"].append({
            "producer_home": rng.randrange(num_hosts),
            "items": rng.randint(1, 4),
            "gaps": [delay(1.0, 40.0) for _ in range(4)],
        })
    for _ in range(rng.randint(0, 2)):
        plan["interrupts"].append({"at": delay(5.0, 200.0)})
    return plan


def _run(plan, sim):
    """Replay ``plan`` on ``sim``; return (trace, final sim.now)."""
    net = Network(sim, one_way_us=50.0, jitter_frac=plan["jitter"],
                  seed=plan["net_seed"])
    hosts = [Host(sim, f"h{i}", cores=plan["cores"][i], fsync_us=80.0)
             for i in range(plan["num_hosts"])]
    servers = [_Echo(host, plan["work_us"][i])
               for i, host in enumerate(hosts)]
    trace = []

    for delay in plan["watchdogs"]:
        # Standing timers: fire late, to nobody.
        sim.timeout(delay)

    def client(cid, spec):
        home = hosts[spec["home"]]
        yield sim.timeout(spec["phase"])
        for idx, op in enumerate(spec["ops"]):
            kind = op[0]
            if kind == "sleep":
                yield sim.timeout(op[1])
                trace.append((sim.now, cid, idx, "slept"))
            elif kind == "work":
                yield from home.work(op[1])
                trace.append((sim.now, cid, idx, "worked"))
            elif kind == "fsync":
                yield from home.fsync()
                trace.append((sim.now, cid, idx, "synced"))
            elif kind == "rpc":
                reply = yield from net.rpc(servers[op[1]], "echo",
                                           (cid, idx))
                trace.append((sim.now, cid, idx, "rpc", reply))
            else:
                first, _ = yield AnyOf(
                    sim, [sim.timeout(d) for d in op[1]])
                trace.append((sim.now, cid, idx, "anyof", first))

    def producer(pid, spec, store):
        home = hosts[spec["producer_home"]]
        for i in range(spec["items"]):
            yield sim.timeout(spec["gaps"][i])
            yield from home.work(1.0)
            store.put((pid, i))
            trace.append((sim.now, "put", pid, i))

    def consumer(pid, spec, store):
        for _ in range(spec["items"]):
            value = yield store.get()
            trace.append((sim.now, "got", pid, value))

    def sleeper(sid):
        try:
            yield sim.timeout(10_000.0)
            trace.append((sim.now, sid, "overslept"))
        except Interrupt as exc:
            trace.append((sim.now, sid, "interrupted", str(exc.cause)))

    def interrupter(victim, at, sid):
        yield sim.timeout(at)
        victim.interrupt(f"poke-{sid}")

    procs = [sim.process(client(cid, spec), name=f"client-{cid}")
             for cid, spec in enumerate(plan["clients"])]
    for pid, spec in enumerate(plan["pairs"]):
        store = Store(sim)
        procs.append(sim.process(producer(pid, spec, store),
                                 name=f"prod-{pid}"))
        procs.append(sim.process(consumer(pid, spec, store),
                                 name=f"cons-{pid}"))
    for sid, spec in enumerate(plan["interrupts"]):
        victim = sim.process(sleeper(sid), name=f"sleeper-{sid}")
        procs.append(victim)
        procs.append(sim.process(interrupter(victim, spec["at"], sid)))
    if plan["until_all"]:
        sim.run_until(sim.all_of(procs))
    else:
        sim.run()
    return trace, sim.now


class TestSchedulerReference:
    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_trace_matches_all_heap_oracle(self, seed):
        plan = _scenario(seed)
        assert _run(plan, Simulator()) == _run(plan, AllHeapSimulator())
