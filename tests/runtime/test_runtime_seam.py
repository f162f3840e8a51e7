"""Unit tests for the runtime seam itself.

Covers the three pieces domain code now depends on instead of the
simulator: runtime resolution (``default_runtime`` / ``Simulator.runtime``),
the ``SimRuntime`` thin adapter, and the ``AsyncioRuntime`` trampoline that
drives plain generators on a real event loop.
"""

import asyncio

import pytest

from repro.errors import NoSuchPathError
from repro.runtime.aio import AsyncioRuntime
from repro.runtime.base import Runtime, SimRuntime, default_runtime
from repro.sim.core import Simulator


class TestRuntimeResolution:
    def test_simulator_runtime_is_cached_sim_runtime(self):
        sim = Simulator()
        runtime = sim.runtime
        assert isinstance(runtime, SimRuntime)
        assert sim.runtime is runtime  # cached, not rebuilt per access

    def test_default_runtime_prefers_sim_attribute(self):
        sim = Simulator()
        assert default_runtime(sim, None) is sim.runtime

    def test_default_runtime_upgrades_network(self):
        # A SimRuntime without a network must gain one when the caller
        # supplies it (the TafDB client path), without mutating sim.runtime.
        sim = Simulator()
        network = object()
        runtime = default_runtime(sim, network)
        assert isinstance(runtime, SimRuntime)
        assert runtime.network is network

    def test_sim_runtime_now_tracks_sim_clock(self):
        sim = Simulator()
        runtime = sim.runtime

        def advance():
            yield sim.timeout(250.0)

        sim.run_process(advance())
        assert runtime.now == sim.now == pytest.approx(250.0)

    def test_runtime_protocol_members(self):
        for method in ("sleep", "work", "fsync", "rpc", "gather", "propose"):
            assert hasattr(Runtime, method)


def drive(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestAsyncioTrampoline:
    def test_return_value_propagates(self):
        runtime = AsyncioRuntime()

        def domain():
            yield from runtime.sleep(1)
            return 42

        assert drive(runtime.drive(domain())) == 42

    def test_plain_return_without_effects(self):
        runtime = AsyncioRuntime()

        def domain():
            return "done"
            yield  # pragma: no cover

        assert drive(runtime.drive(domain())) == "done"

    def test_work_is_free_live(self):
        runtime = AsyncioRuntime()

        def domain():
            yield from runtime.work(None, 10_000_000)  # 10 sim-seconds
            return "instant"

        before = runtime.now
        assert drive(runtime.drive(domain())) == "instant"
        assert runtime.now - before < 1_000_000  # nowhere near 10s

    def test_nested_yield_from_layers(self):
        runtime = AsyncioRuntime()

        def inner():
            yield from runtime.sleep(1)
            return 10

        def outer():
            value = yield from inner()
            return value + 1

        assert drive(runtime.drive(outer())) == 11

    def test_gather_collects_in_order(self):
        runtime = AsyncioRuntime()

        def leg(n):
            yield from runtime.sleep((5 - n))  # later legs finish earlier
            return n

        def domain():
            results = yield from runtime.gather([leg(n) for n in range(4)])
            return results

        assert drive(runtime.drive(domain())) == [0, 1, 2, 3]

    def test_exceptions_delivered_into_generator(self):
        runtime = AsyncioRuntime()

        class Boom:
            async def call(self, method, args, kwargs, timeout_s, trace):
                raise NoSuchPathError("/x")

        def domain():
            try:
                yield from runtime.rpc(Boom(), "read", "/x")
            except NoSuchPathError:
                return "caught"
            return "missed"

        assert drive(runtime.drive(domain())) == "caught"

    def test_uncaught_exception_propagates_out(self):
        runtime = AsyncioRuntime()

        class Boom:
            async def call(self, method, args, kwargs, timeout_s, trace):
                raise NoSuchPathError("/x")

        def domain():
            yield from runtime.rpc(Boom(), "read", "/x")

        with pytest.raises(NoSuchPathError):
            drive(runtime.drive(domain()))

    def test_rpc_counts_against_context(self):
        runtime = AsyncioRuntime()

        class Echo:
            async def call(self, method, args, kwargs, timeout_s, trace):
                return args[0], {}  # result, response envelope

        class Ctx:
            rpcs = 0

        ctx = Ctx()

        def domain():
            value = yield from runtime.rpc(Echo(), "echo", "hi", ctx=ctx)
            return value

        assert drive(runtime.drive(domain())) == "hi"
        assert ctx.rpcs == 1

    def test_foreign_yield_is_a_seam_leak(self):
        runtime = AsyncioRuntime()

        def domain():
            yield object()  # a raw simulator event leaking through

        with pytest.raises(RuntimeError, match="seam"):
            drive(runtime.drive(domain()))

    def test_now_is_monotonic_microseconds(self):
        runtime = AsyncioRuntime()
        first = runtime.now
        second = runtime.now
        assert second >= first >= 0.0
