"""Randomized differential stress: the product scheduler vs the all-heap
oracle (:mod:`tests.oracle`), and untraced runs vs traced ones.

Each seed expands into a scenario *plan* — plain data: hosts, servers,
client scripts, store ping-pongs, interrupts, host crashes, standing
watchdogs — before any simulator exists, so every run replays the identical
workload.  The executed event trace (timestamps, actors, values, errors)
and the final clock must be bit-identical; any divergence is an ordering
bug, and the seed reproduces it.

Two oracles (:mod:`tests.oracle`) read the same plans.  The all-heap
scheduler checks the two-tier one: the two-tier rule (due heap entries,
then the deque, then advance) only decides anything when a due heap entry
and deque entries share a timestamp, which continuous delays almost never
produce, so odd seeds round every delay to whole microseconds and switch
jitter off — ties everywhere — and seeds with bit 1 set drive the plan
through ``run_until(all_of(procs))``, the loop behind every figure,
instead of ``run()``.  A run on request-then-timeout hosts with generator
RPCs checks the kernel-driven paths — unary RPCs and CPU/disk slices —
against the generators they replace, in what happens and, traced and
telemetered, in what is recorded, so the plans mix generator and
:func:`~repro.sim.network.unary` handlers, handlers whose body or
declaration raises, crashed hosts, ``AnyOf`` over a raw CPU slice and
clients interrupted mid-operation.
"""

import random

import pytest

from repro.errors import ServiceUnavailableError
from repro.sim.core import AnyOf, Interrupt, Simulator
from repro.sim.host import Host, Slice
from repro.sim.network import Network, Server, unary
from repro.sim.resources import Store
from repro.sim.telemetry import Telemetry
from repro.sim.trace import Tracer, span_to_jsonable
from tests.oracle import AllHeapSimulator, request_timeout_hosts


#: Four plan shapes (continuous/whole-us delays x run/run_until), 30 seeds each.
SEEDS = 120


class HandlerError(Exception):
    """What the faulty handlers raise."""


class _Echo(Server):
    def __init__(self, host, work_us):
        super().__init__(host)
        self.work_us = work_us

    def rpc_echo(self, value):
        yield from self.host.work(self.work_us)
        return value

    @unary
    def rpc_uecho(self, value):
        return self.work_us, None, value

    @unary
    def rpc_ufault(self, value):
        return self.work_us, self._fault, value

    @unary
    def rpc_urefuse(self, value):
        raise HandlerError(value)

    @staticmethod
    def _fault(value):
        raise HandlerError(value)


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
        "crashes": [],
        "pokes": [],
    }
    for cid in range(rng.randint(2, 8)):
        ops = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.choice(["sleep", "work", "rpc", "rpc", "fsync",
                               "anyof", "urpc", "urpc", "urpc", "ufault",
                               "urefuse", "aslice"])
            if kind == "sleep":
                ops.append(("sleep", delay(0.0, 30.0)))
            elif kind in ("work", "aslice"):
                ops.append((kind, delay(0.5, 10.0), delay(0.5, 10.0)))
            elif kind in ("rpc", "urpc", "ufault", "urefuse"):
                ops.append((kind, rng.randrange(num_hosts)))
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
    for _ in range(rng.randint(0, 2)):
        plan["crashes"].append({"host": rng.randrange(num_hosts),
                                "at": delay(0.0, 300.0),
                                "down": delay(5.0, 150.0)})
    for _ in range(rng.randint(0, 2)):
        plan["pokes"].append({"client": rng.randrange(len(plan["clients"])),
                              "at": delay(0.0, 300.0)})
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

    def step(cid, idx, op, home):
        kind = op[0]
        if kind == "sleep":
            yield sim.timeout(op[1])
            return "slept"
        if kind == "work":
            yield from home.work(op[1])
            return "worked"
        if kind == "fsync":
            yield from home.fsync()
            return "synced"
        if kind == "aslice":
            first, _ = yield AnyOf(sim, [Slice(home, home.cpu, op[1]),
                                         sim.timeout(op[2])])
            return ("aslice", first)
        if kind == "anyof":
            first, _ = yield AnyOf(sim, [sim.timeout(d) for d in op[1]])
            return ("anyof", first)
        method = {"rpc": "echo", "urpc": "uecho", "ufault": "ufault",
                  "urefuse": "urefuse"}[kind]
        reply = yield from net.rpc(servers[op[1]], method, (cid, idx))
        return (kind, reply)

    def client(cid, spec):
        home = hosts[spec["home"]]
        yield sim.timeout(spec["phase"])
        for idx, op in enumerate(spec["ops"]):
            try:
                outcome = yield from step(cid, idx, op, home)
            except (HandlerError, ServiceUnavailableError, Interrupt) as exc:
                outcome = ("error", type(exc).__name__, str(exc))
            trace.append((sim.now, cid, idx, outcome))

    def producer(pid, spec, store):
        home = hosts[spec["producer_home"]]
        for i in range(spec["items"]):
            yield sim.timeout(spec["gaps"][i])
            try:
                yield from home.work(1.0)
            except ServiceUnavailableError:
                trace.append((sim.now, "producer down", pid, i))
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

    def crasher(spec):
        yield sim.timeout(spec["at"])
        hosts[spec["host"]].crash()
        trace.append((sim.now, "crash", spec["host"]))
        yield sim.timeout(spec["down"])
        hosts[spec["host"]].recover()
        trace.append((sim.now, "recover", spec["host"]))

    clients = [sim.process(client(cid, spec), name=f"client-{cid}")
               for cid, spec in enumerate(plan["clients"])]
    procs = list(clients)
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
    for spec in plan["crashes"]:
        procs.append(sim.process(crasher(spec)))
    for sid, spec in enumerate(plan["pokes"]):
        procs.append(sim.process(interrupter(
            clients[spec["client"]], spec["at"], f"client-{sid}")))
    if plan["until_all"]:
        sim.run_until(sim.all_of(procs))
    else:
        sim.run()
    busy = [(host.cpu_busy_us, host.fsync_count, host.cpu.in_use,
             host.disk.in_use) for host in hosts]
    return trace, sim.now, net.message_count, busy


def _recorded(plan):
    """Replay ``plan`` traced and telemetered; return what ``_run`` returns
    plus every finished span (in order), the unattributed charges and the
    telemetry rows."""
    sim = Simulator(tracer=Tracer(), telemetry=Telemetry())
    outcome = _run(plan, sim)
    return (outcome, [span_to_jsonable(span) for span in sim.tracer.spans],
            sim.tracer.unattributed, sim.telemetry.export_rows(sim.now))


class TestSchedulerReference:
    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_trace_matches_all_heap_oracle(self, seed):
        plan = _scenario(seed)
        assert _run(plan, Simulator()) == _run(plan, AllHeapSimulator())

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_kernel_driven_paths_match_the_generator_reference(self, seed):
        """Unary RPCs and every charge are kernel-driven, traced or not;
        on request-then-timeout hosts with generator RPCs, nothing is.  No
        run may tell them apart."""
        plan = _scenario(seed)
        untraced = _run(plan, Simulator())
        assert untraced == _run(plan, Simulator(tracer=Tracer()))
        with request_timeout_hosts():
            assert untraced == _run(plan, Simulator(tracer=Tracer()))

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_instruments_record_what_the_generator_reference_records(
            self, seed):
        """Traced and telemetered, the kernel-driven paths leave the spans,
        unattributed charges and telemetry rows the generator path leaves
        — raising handlers, crashed hosts and interrupted callers
        included."""
        plan = _scenario(seed)
        product = _recorded(plan)
        with request_timeout_hosts():
            assert product == _recorded(plan)
