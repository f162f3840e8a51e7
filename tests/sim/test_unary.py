"""Kernel-driven unary RPCs and CPU slices against the generators they
replace.

An RPC to a :func:`~repro.sim.network.unary` handler is one event the
kernel steps through, traced or not; on request-then-timeout hosts
(:mod:`tests.oracle`) the same declaration runs as a handler generator and
no charge is kernel-driven either.  Every scenario here runs untraced,
traced and traced on the reference hosts and must produce the same
timestamps, results and errors (:func:`both`); the seeded plans of
``test_scheduler_reference.py`` mix the same ingredients at random and also
run them against the all-heap oracle.
"""

import pytest

from repro.errors import ServiceUnavailableError
from repro.sim.core import AnyOf, Process, Simulator
from repro.sim.host import Host, Slice
from repro.sim.network import Network, Server, unary
from repro.sim.telemetry import Telemetry
from repro.sim.trace import Tracer
from repro.tafdb.cluster import TafDBCluster
from repro.tafdb.rows import attr_key
from repro.types import ROOT_ID
from tests.oracle import request_timeout_hosts


class Refused(Exception):
    pass


class Echo(Server):
    @unary
    def rpc_echo(self, value):
        return 10.0, None, value

    @unary
    def rpc_twice(self, value):
        return 10.0, self._twice, value

    @unary
    def rpc_fault(self, value):
        return 10.0, self._refuse, value

    @unary
    def rpc_refuse(self, value):
        raise Refused(value)

    @staticmethod
    def _twice(value):
        return 2 * value

    @staticmethod
    def _refuse(value):
        raise Refused(value)


def both(scenario):
    """``scenario(sim)`` untraced, traced, and traced on the reference
    hosts: equal outcomes, returned."""
    plain = scenario(Simulator())
    assert scenario(Simulator(tracer=Tracer())) == plain
    with request_timeout_hosts():
        assert scenario(Simulator(tracer=Tracer())) == plain
    return plain


def _cluster(sim, cores=2):
    host = Host(sim, "srv", cores=cores)
    return host, Echo(host), Network(sim, one_way_us=50.0)


def _call(sim, net, server, method, value, log):
    try:
        reply = yield from net.rpc(server, method, value)
        log.append((sim.now, value, reply))
    except (Refused, ServiceUnavailableError) as exc:
        log.append((sim.now, value, type(exc).__name__))


def test_declaration_yields_both_forms():
    assert set(Echo.unary_handlers) == {"echo", "twice", "fault", "refuse"}
    assert Server.unary_handlers == {}

    def scenario(sim):
        _host, server, net = _cluster(sim)
        log = []
        sim.process(_call(sim, net, server, "twice", 21, log))
        sim.run()
        return log

    assert both(scenario) == [(110.0, 21, 42)]


def test_contended_cpu_at_capacity_one():
    def scenario(sim):
        host, server, net = _cluster(sim, cores=1)
        log = []
        for value in range(4):
            sim.process(_call(sim, net, server, "echo", value, log))
        sim.run()
        return log, host.cpu_busy_us, host.cpu.in_use, net.message_count

    log, busy, in_use, messages = both(scenario)
    assert log == [(110.0, 0, 0), (120.0, 1, 1), (130.0, 2, 2),
                   (140.0, 3, 3)]
    assert (busy, in_use, messages) == (40.0, 0, 8)


def test_host_crashed_before_the_call():
    def scenario(sim):
        host, server, net = _cluster(sim)
        host.crash()
        log = []
        sim.process(_call(sim, net, server, "echo", 1, log))
        sim.run()
        return log, host.cpu_busy_us

    # Refused on arrival; the error still flies back.
    assert both(scenario) == ([(100.0, 1, "ServiceUnavailableError")], 0.0)


def test_host_crashed_during_the_call():
    def scenario(sim):
        host, server, net = _cluster(sim)
        log = []

        def crasher():
            yield sim.timeout(55.0)  # the charge runs 50..60
            host.crash()

        sim.process(_call(sim, net, server, "echo", 1, log))
        sim.process(crasher())
        sim.run()
        return log, host.cpu_busy_us, host.cpu.in_use

    # The charge completes (and is booked), its core is released, then
    # the crash fails the call; the error flies back.
    assert both(scenario) == ([(110.0, 1, "ServiceUnavailableError")],
                              10.0, 0)


@pytest.mark.parametrize("method, when", [("fault", 110.0),
                                          ("refuse", 100.0)])
def test_handler_that_raises(method, when):
    """A raising body fails the call after the charge; a raising
    declaration fails it on arrival, with nothing charged."""
    def scenario(sim):
        host, server, net = _cluster(sim)
        log = []
        sim.process(_call(sim, net, server, method, 7, log))
        sim.run()
        return log, host.cpu_busy_us

    log, busy = both(scenario)
    assert log == [(when, 7, "Refused")]
    assert busy == (10.0 if method == "fault" else 0.0)


@pytest.mark.parametrize("timeout_us, winner", [(5.0, 1), (20.0, 0)])
def test_anyof_over_a_slice(timeout_us, winner):
    def scenario(sim):
        host = Host(sim, "h", cores=1)
        log = []

        def blocker():
            yield from host.work(4.0)

        def racer():
            first, _ = yield AnyOf(sim, [Slice(host, host.cpu, 10.0),
                                         sim.timeout(timeout_us)])
            log.append((sim.now, first))

        sim.process(blocker())
        sim.process(racer())
        sim.run()
        return log, sim.now, host.cpu_busy_us, host.cpu.in_use

    log, end, busy, in_use = both(scenario)
    # The slice queues 4 us behind the blocker, then runs 10.
    assert log == [(timeout_us if winner else 14.0, winner)]
    assert (end, busy, in_use) == (max(14.0, timeout_us), 14.0, 0)


def test_a_grant_takes_its_turn_in_the_deque():
    """The slice is timed when its grant comes off the deque, as the
    holder's timeout was: a timer armed by a process that was queued ahead
    of the grant, for the same instant, fires first."""
    def scenario(sim):
        host = Host(sim, "h", cores=1)
        log = []

        def worker():
            yield from host.work(10.0)  # granted at once, via the deque
            log.append((sim.now, "worked"))

        def sleeper():
            yield sim.timeout(10.0)
            log.append((sim.now, "slept"))

        sim.process(worker())
        sim.process(sleeper())  # starts before the worker's grant runs
        sim.run()
        return log

    assert both(scenario) == [(10.0, "slept"), (10.0, "worked")]


def _resumes_of_one_call(monkeypatch, sim, call):
    """Timestamps at which ``call()``'s process resumes, after its start."""
    real = Process._resume
    stamps = []

    def counting(self, trigger):
        if self is proc:
            stamps.append(sim.now)
        return real(self, trigger)

    monkeypatch.setattr(Process, "_resume", counting)

    def body():
        return (yield from call())

    proc = sim.process(body())
    sim.run_until(proc)
    return stamps[1:], proc.value


def _tafdb_read(monkeypatch, sim):
    cluster = TafDBCluster(sim, Network(sim), num_servers=2, num_shards=4,
                           start_compactors=False)
    db = cluster.client()
    stamps, row = _resumes_of_one_call(
        monkeypatch, sim, lambda: db.read(attr_key(ROOT_ID)))
    # 50 out + 25 read + 50 back, and nothing in between.
    assert stamps == [125.0]
    assert row is None  # an empty store: no root row was loaded


def test_untraced_tafdb_read_resumes_its_caller_once(monkeypatch):
    _tafdb_read(monkeypatch, Simulator())


def test_traced_tafdb_read_resumes_its_caller_once(monkeypatch):
    """Instruments change what is recorded, not the path: the traced read
    is the same one kernel-driven call, and still leaves its spans."""
    sim = Simulator(tracer=Tracer(), telemetry=Telemetry())
    _tafdb_read(monkeypatch, sim)
    handler, rpc = sim.tracer.spans
    assert (handler.name, rpc.name) == ("rpc_read", "rpc:read")
    assert handler.parent_id == rpc.span_id
    assert [kind for kind, _host in handler.costs] == ["cpu"]
    assert rpc.costs == {("wire", rpc.host): 100.0}


def test_untraced_host_work_resumes_its_holder_once(monkeypatch):
    sim = Simulator()
    host = Host(sim, "h", cores=1)
    stamps, _ = _resumes_of_one_call(monkeypatch, sim,
                                     lambda: host.work(7.0))
    assert stamps == [7.0]
