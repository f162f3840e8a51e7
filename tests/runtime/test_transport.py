"""The framed transport under hostile input and timing.

Covers the pieces every live hop goes through: the incremental frame
decoder, :class:`~repro.runtime.aio.RpcConnection` (deadlines, connection
loss, back-pressure) and :class:`~repro.runtime.aio.WireServer` (answering
inside the read callback, per-request concurrency, typed error frames,
cancel-on-disconnect).  Peers that misbehave are raw sockets driven by the
test itself.
"""

import asyncio
import struct

import pytest

from repro.errors import (
    ConnectionLostError,
    FrameError,
    MetadataError,
    NoSuchPathError,
    RPCTimeoutError,
)
from repro.runtime import wire
from repro.runtime.aio import AsyncioRuntime, RpcConnection, WireServer


class Dispatcher:
    """Handlers written like the domain's: generators over the runtime."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.ran_on_task = {}
        self.cancelled = []

    def dispatch(self, method, args, kwargs, span=None):
        self.ran_on_task[method] = asyncio.current_task() is not None
        result = yield from getattr(self, "rpc_" + method)(*args, **kwargs)
        return result

    def rpc_echo(self, value):
        return value
        yield  # pragma: no cover

    def rpc_blob(self, size):
        return "x" * size
        yield  # pragma: no cover

    def rpc_slow(self, seconds, value=None):
        try:
            yield from self.runtime.sleep(seconds * 1e6)
        except asyncio.CancelledError:
            self.cancelled.append(value)
            raise
        return value

    def rpc_missing(self, path):
        raise NoSuchPathError(path)
        yield  # pragma: no cover

    def rpc_broken(self):
        raise ValueError("not a metadata error")
        yield  # pragma: no cover


def run(scenario):
    """Run ``scenario(server, dispatcher, endpoint)`` against a fresh
    WireServer; fails if the loop logged an unhandled error meanwhile."""
    logged = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: logged.append(context))
        runtime = AsyncioRuntime()
        dispatcher = Dispatcher(runtime)
        server = WireServer(runtime, dispatcher)
        port = await server.start()
        try:
            return await scenario(server, dispatcher, f"127.0.0.1:{port}")
        finally:
            await server.stop()

    result = asyncio.run(asyncio.wait_for(main(), 30))
    assert not logged, logged
    return result


async def raw_connect(endpoint):
    host, port = endpoint.rsplit(":", 1)
    return await asyncio.open_connection(host, int(port))


async def read_reply(reader):
    (length,) = struct.unpack(">I", await reader.readexactly(4))
    return wire.unpack_payload(await reader.readexactly(length))


async def result_of(connection, *call, **kwargs):
    """One call's result (``call`` resolves to it and its envelope)."""
    result, _envelope = await connection.call(*call, **kwargs)
    return result


class TestFrameDecoder:
    FRAMES = [wire.pack_frame({"id": n, "v": "é" * n}) for n in range(50)]

    def test_one_byte_at_a_time(self):
        decoder = wire.FrameDecoder()
        got = []
        for frame in self.FRAMES[:5]:
            for k in range(len(frame)):
                got += decoder.feed(frame[k:k + 1])
        assert [p["id"] for p in got] == [0, 1, 2, 3, 4]
        decoder.check_eof()  # nothing left over

    def test_fifty_frames_in_one_segment(self):
        got = wire.FrameDecoder().feed(b"".join(self.FRAMES))
        assert [p["id"] for p in got] == list(range(50))

    def test_split_anywhere(self):
        stream = b"".join(self.FRAMES)
        for cut in (1, 3, 4, 5, 17, len(stream) - 1):
            decoder = wire.FrameDecoder()
            got = decoder.feed(stream[:cut]) + decoder.feed(stream[cut:])
            assert [p["id"] for p in got] == list(range(50))

    def test_oversized_declared_length(self):
        with pytest.raises(FrameError):
            wire.FrameDecoder().feed(
                struct.pack(">I", wire.MAX_FRAME_BYTES + 1))

    def test_truncated_tail_at_eof(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(self.FRAMES[3][:-1]) == []
        with pytest.raises(FrameError):
            decoder.check_eof()

    def test_undecodable_payload(self):
        with pytest.raises(FrameError):
            wire.FrameDecoder().feed(struct.pack(">I", 3) + b"\xff\xfe{")


class TestServerFraming:
    def test_request_dribbled_one_byte_at_a_time(self):
        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            for byte in wire.encode_request(7, "echo", ("hi",), {}):
                writer.write(bytes([byte]))
                await writer.drain()
            reply = await read_reply(reader)
            writer.close()
            return reply

        assert run(scenario) == {"id": 7, "ok": True, "result": "hi"}

    def test_fifty_requests_in_one_segment(self):
        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            writer.write(b"".join(
                wire.encode_request(n, "echo", (n,), {}) for n in range(50)))
            replies = [await read_reply(reader) for _ in range(50)]
            writer.close()
            return replies, dispatcher.ran_on_task["echo"]

        replies, on_task = run(scenario)
        assert [(r["id"], r["result"]) for r in replies] == \
            [(n, n) for n in range(50)]
        # A handler that never waits is answered inside the read callback.
        assert on_task is False

    @pytest.mark.parametrize("garbage", [
        struct.pack(">I", wire.MAX_FRAME_BYTES + 1),     # oversized
        struct.pack(">I", 5) + b"\xff\xfe\xfd\xfc\xfb",  # undecodable
        wire.pack_frame([1, 2, 3]),                      # not an envelope
    ])
    def test_framing_fault_closes_the_connection(self, garbage):
        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            writer.write(wire.encode_request(1, "echo", ("ok",), {}))
            first = await read_reply(reader)
            writer.write(garbage)
            rest = await reader.read()  # server closes: EOF, nothing more
            writer.close()
            return first, rest, len(server._connections)

        first, rest, open_connections = run(scenario)
        assert first["result"] == "ok"
        assert rest == b""
        assert open_connections == 0

    def test_truncated_request_at_eof_closes_quietly(self):
        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            writer.write(wire.encode_request(1, "echo", ("x",), {})[:-2])
            writer.write_eof()
            rest = await reader.read()
            writer.close()
            return rest, len(server._connections)

        assert run(scenario) == (b"", 0)


class TestHandlers:
    def test_error_before_first_effect_is_a_typed_error_frame(self):
        async def scenario(server, dispatcher, endpoint):
            connection = RpcConnection(endpoint)
            try:
                with pytest.raises(NoSuchPathError) as missing:
                    await connection.call("missing", ("/a/b",), {})
                with pytest.raises(MetadataError, match="ValueError"):
                    await connection.call("broken", (), {})
                with pytest.raises(MetadataError):
                    await connection.call("no_such_method", (), {})
                # ... and the connection survived all three.
                assert await result_of(connection, "echo", (1,), {}) == 1
                return missing.value.path
            finally:
                connection.close()

        assert run(scenario) == "/a/b"

    def test_slow_handler_does_not_block_an_independent_read(self):
        async def scenario(server, dispatcher, endpoint):
            connection = RpcConnection(endpoint)
            finished = []

            async def call(method, *args):
                finished.append(await result_of(connection, method, args, {}))

            try:
                slow = asyncio.ensure_future(call("slow", 0.3, "prepare"))
                await asyncio.sleep(0.05)
                await call("echo", "read")
                await slow
            finally:
                connection.close()
            return finished, dispatcher.ran_on_task

        finished, ran_on_task = run(scenario)
        assert finished == ["read", "prepare"]
        assert ran_on_task == {"slow": False, "echo": False}

    def test_disconnect_cancels_waiting_handlers(self):
        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            writer.write(wire.encode_request(1, "slow", (30, "a"), {}))
            writer.write(wire.encode_request(2, "slow", (30, "b"), {}))
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            for _ in range(100):
                if len(dispatcher.cancelled) == 2:
                    break
                await asyncio.sleep(0.01)
            return sorted(dispatcher.cancelled)

        assert run(scenario) == ["a", "b"]


class TestRpcConnection:
    def test_deadline_raises_and_late_reply_is_dropped(self):
        async def scenario(server, dispatcher, endpoint):
            connection = RpcConnection(endpoint)
            try:
                with pytest.raises(RPCTimeoutError):
                    await connection.call("slow", (0.2,), {}, timeout_s=0.05)
                await asyncio.sleep(0.3)  # the reply arrives, for nobody
                return await result_of(connection, "echo", ("still here",),
                                       {}), len(connection._pending)
            finally:
                connection.close()

        assert run(scenario) == ("still here", 0)

    def test_connection_loss_fails_every_pending_call(self):
        async def scenario(server, dispatcher, endpoint):
            connection = RpcConnection(endpoint)
            calls = [asyncio.ensure_future(
                connection.call("slow", (30, n), {})) for n in range(5)]
            await asyncio.sleep(0.05)
            await server.stop()
            outcomes = await asyncio.gather(*calls, return_exceptions=True)
            with pytest.raises(ConnectionLostError):  # nobody listens now
                await connection.call("echo", (1,), {})
            return outcomes

        outcomes = run(scenario)
        assert len(outcomes) == 5
        assert all(isinstance(o, ConnectionLostError) for o in outcomes)

    def test_truncated_reply_at_eof_is_a_frame_error(self):
        async def main():
            async def half_a_reply(reader, writer):
                await reader.readexactly(4)
                writer.write(wire.encode_response(1, result="whole")[:-3])
                writer.close()

            server = await asyncio.start_server(half_a_reply, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            connection = RpcConnection(f"127.0.0.1:{port}")
            try:
                with pytest.raises(FrameError):
                    await connection.call("echo", ("x",), {})
            finally:
                connection.close()
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(main(), 30))

    def test_reconnects_after_a_loss(self):
        async def scenario(server, dispatcher, endpoint):
            connection = RpcConnection(endpoint)
            assert await result_of(connection, "echo", (1,), {}) == 1
            connection.transport.abort()
            await asyncio.sleep(0.05)
            try:
                return await result_of(connection, "echo", (2,), {})
            finally:
                connection.close()

        assert run(scenario) == 2

    def test_slow_reader_loses_no_response(self):
        # 200 x 64 KiB of replies to a peer that is not reading: the
        # server's write buffer passes its high-water mark, it stops
        # reading requests from that peer, and once the peer drains every
        # reply is there, in order.
        count, size = 200, 64 * 1024

        async def scenario(server, dispatcher, endpoint):
            reader, writer = await raw_connect(endpoint)
            writer.write(b"".join(
                wire.encode_request(n, "blob", (size,), {})
                for n in range(count)))
            await asyncio.sleep(0.3)
            (serving,) = server._connections
            paused = not serving.transport.is_reading()
            replies = [await read_reply(reader) for _ in range(count)]
            writer.close()
            return paused, replies

        paused, replies = run(scenario)
        assert paused
        assert [r["id"] for r in replies] == list(range(count))
        assert all(len(r["result"]) == size for r in replies)

    def test_writer_waits_while_the_peer_is_not_reading(self):
        async def main():
            release = asyncio.Event()

            async def deaf_then_echo(reader, writer):
                await release.wait()
                while True:
                    try:
                        request = await read_reply(reader)
                    except asyncio.IncompleteReadError:
                        break
                    writer.write(wire.encode_response(request["id"],
                                                      result=request["id"]))
                writer.close()

            server = await asyncio.start_server(deaf_then_echo, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            connection = RpcConnection(f"127.0.0.1:{port}")
            blob = "x" * (256 * 1024)
            calls = [asyncio.ensure_future(
                result_of(connection, "echo", (blob,), {}))
                for _ in range(64)]
            await asyncio.sleep(0.3)
            waiting = connection._drained is not None
            release.set()
            ids = await asyncio.gather(*calls)
            connection.close()
            server.close()
            await server.wait_closed()
            return waiting, ids

        waiting, ids = asyncio.run(asyncio.wait_for(main(), 60))
        assert waiting  # 16 MiB never fits a loopback socket buffer
        assert sorted(ids) == list(range(1, 65))
