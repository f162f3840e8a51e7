"""Unit tests for Host, CostModel, Network and Server dispatch."""

import pytest

from repro.errors import ServiceUnavailableError
from repro.sim.core import Interrupt, Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network, Server
from repro.sim.stats import OpContext


class EchoServer(Server):
    def rpc_echo(self, value):
        yield from self.host.work(10)
        return ("echo", value)

    def rpc_fail(self):
        yield from self.host.work(1)
        raise ValueError("handler error")


def build():
    sim = Simulator()
    host = Host(sim, "srv", cores=2)
    server = EchoServer(host)
    net = Network(sim, one_way_us=50)
    return sim, host, server, net


def test_rpc_charges_two_transits_plus_service():
    sim, host, server, net = build()

    def body():
        result = yield from net.rpc(server, "echo", 7)
        return (result, sim.now)

    result, when = sim.run_process(body())
    assert result == ("echo", 7)
    assert when == 110.0  # 50 out + 10 service + 50 back


def test_rpc_counts_rounds():
    sim, host, server, net = build()
    ctx = OpContext("echo")

    def body():
        yield from net.rpc(server, "echo", 1, ctx=ctx)
        yield from net.rpc(server, "echo", 2, ctx=ctx)

    sim.run_process(body())
    assert net.rpc_count == 2
    assert ctx.rpcs == 2


def test_server_cpu_queueing_delays_rpcs():
    sim, host, server, net = build()  # 2 cores
    finish_times = []

    def caller():
        yield from net.rpc(server, "echo", 0)
        finish_times.append(sim.now)

    for _ in range(4):
        sim.process(caller())
    sim.run()
    # Two run at once; the next two queue behind them for 10us.
    assert finish_times == [110.0, 110.0, 120.0, 120.0]


def test_handler_exception_propagates_after_return_transit():
    sim, host, server, net = build()

    def body():
        try:
            yield from net.rpc(server, "fail")
        except ValueError:
            return sim.now

    # 50 out + 1 service + 50 back: error arrives with the response.
    assert sim.run_process(body()) == 101.0


def test_unknown_method_raises():
    sim, host, server, net = build()

    def body():
        yield from net.rpc(server, "nope")

    with pytest.raises(AttributeError):
        sim.run_process(body())


def test_crashed_host_rejects_work():
    sim, host, server, net = build()
    host.crash()

    def body():
        yield from net.rpc(server, "echo", 1)

    with pytest.raises(ServiceUnavailableError):
        sim.run_process(body())
    host.recover()

    def body2():
        result = yield from net.rpc(server, "echo", 1)
        return result

    assert sim.run_process(body2()) == ("echo", 1)


def test_fsync_serializes_and_counts():
    sim = Simulator()
    host = Host(sim, "db", cores=4, fsync_us=100)
    done = []

    def flusher():
        yield from host.fsync()
        done.append(sim.now)

    sim.process(flusher())
    sim.process(flusher())
    sim.run()
    assert done == [100.0, 200.0]
    assert host.fsync_count == 2


class TestInterruptedHolderGivesTheSlotBack:
    """A holder interrupted while waiting for a core (or the disk) — Raft
    ``stop``, compactor shutdown — must not keep it: queued, its request
    leaves the queue; granted, its slot goes to the next in line."""

    def _run(self, victim_waits_at, resource="cpu"):
        sim = Simulator()
        host = Host(sim, "h", cores=1, fsync_us=10.0)
        hold = host.work if resource == "cpu" else (
            lambda us: host.fsync_cost(us))
        log = []

        def poker(at):
            yield sim.timeout(at)
            victim.interrupt("stop")

        def holder():
            yield from hold(10.0)

        def victim_body():
            try:
                yield from hold(10.0)
                log.append(("victim done", sim.now))
            except Interrupt:
                log.append(("victim interrupted", sim.now))

        def latecomer():
            yield sim.timeout(12.0)
            yield from hold(5.0)
            log.append(("latecomer done", sim.now))

        # The poker's timer is armed first, so at t=10 it fires before the
        # holder's slot is released and granted to the victim.
        sim.process(poker(victim_waits_at))
        sim.process(holder())
        victim = sim.process(victim_body())
        sim.process(latecomer())
        sim.run()
        slot = host.cpu if resource == "cpu" else host.disk
        return log, slot.in_use, slot.queued

    @pytest.mark.parametrize("resource", ["cpu", "disk"])
    def test_interrupted_while_queued(self, resource):
        log, in_use, queued = self._run(5.0, resource)
        assert log == [("victim interrupted", 5.0), ("latecomer done", 17.0)]
        assert (in_use, queued) == (0, 0)

    @pytest.mark.parametrize("resource", ["cpu", "disk"])
    def test_interrupted_after_its_grant_before_its_charge(self, resource):
        # At t=10 the interrupt is queued first, then the release grants
        # the victim the slot: the victim hands it straight on.
        log, in_use, queued = self._run(10.0, resource)
        assert log == [("victim interrupted", 10.0),
                       ("latecomer done", 17.0)]
        assert (in_use, queued) == (0, 0)

    def test_interrupted_mid_charge(self):
        log, in_use, queued = self._run(15.0)
        assert log == [("victim interrupted", 15.0),
                       ("latecomer done", 20.0)]
        assert (in_use, queued) == (0, 0)


def test_utilization_accounting():
    sim = Simulator()
    host = Host(sim, "h", cores=2)

    def worker():
        yield from host.work(50)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert host.cpu_busy_us == 100.0
    assert host.utilization(50.0) == pytest.approx(1.0)


def test_network_jitter_stays_positive_and_varies():
    sim = Simulator()
    net = Network(sim, one_way_us=50, jitter_frac=0.5, seed=3)
    samples = {net._sample_one_way() for _ in range(50)}
    assert len(samples) > 1
    assert all(s >= 1.0 for s in samples)


def test_cost_model_copy_overrides():
    base = CostModel()
    tweaked = base.copy(fsync_us=999.0)
    assert tweaked.fsync_us == 999.0
    assert base.fsync_us == 120.0
    assert tweaked.net_one_way_us == base.net_one_way_us
