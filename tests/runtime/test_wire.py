"""Wire-protocol tests: golden-pinned bytes plus codec round trips.

The golden file (``golden_ops_wire.json``) pins the exact wire encoding of
every registered op, the OpResult envelope, one full request frame, and the
error encodings.  A diff against it is a protocol break between client and
server versions — regenerate it only as a deliberate, documented protocol
change.
"""

import json
import pathlib

import pytest

from repro import ops as O
from repro.errors import (
    AlreadyExistsError,
    ConnectionLostError,
    FrameError,
    MetadataError,
    NoSuchPathError,
    PermissionDeniedError,
    RPCTimeoutError,
    ServiceUnavailableError,
    TransactionAbort,
    TransportError,
    error_from_wire,
    error_to_wire,
)
from repro.ops import OP_TYPES, Op, make_op
from repro.runtime import wire
from repro.tafdb.rows import AttrDelta, AttrMeta, Dirent, Row, RowKey
from repro.tafdb.shard import WriteIntent
from repro.types import EntryKind, OpResult, Permission, StatResult

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_ops_wire.json"

#: One representative instance per registered op — keep in sync with the
#: generator that produced the golden file.
SAMPLE_OPS = [
    O.Create("/bucket/logs/part-0001"),
    O.Delete("/bucket/logs/part-0001"),
    O.ObjStat("/bucket/logs/part-0001"),
    O.DirStat("/bucket/logs"),
    O.ReadDir("/bucket/logs"),
    O.Mkdir("/bucket/logs"),
    O.Rmdir("/bucket/logs"),
    O.Rename("/bucket/logs", "/bucket/archive"),
    O.SetAttr("/bucket/logs", Permission.READ | Permission.EXECUTE),
]


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestGoldenPin:
    def test_every_registered_op_has_a_golden_sample(self):
        assert {type(op).__name__ for op in SAMPLE_OPS} == {
            cls.__name__ for cls in OP_TYPES.values()}

    def test_op_wire_dicts_match_golden(self, golden):
        by_type = {entry["type"]: entry for entry in golden["ops"]}
        for op in SAMPLE_OPS:
            assert op.to_wire() == by_type[type(op).__name__]["wire"]

    def test_op_frame_bytes_match_golden(self, golden):
        by_type = {entry["type"]: entry for entry in golden["ops"]}
        for op in SAMPLE_OPS:
            frame = wire.pack_frame(op.to_wire())
            assert frame.hex() == by_type[type(op).__name__]["frame_hex"]

    def test_op_result_wire_matches_golden(self, golden):
        result = OpResult(42, rpcs=3, retries=1, latency_us=1234.5)
        assert result.to_wire() == golden["op_result"]["wire"]
        frame = wire.pack_frame(wire.to_jsonable(result))
        assert frame.hex() == golden["op_result"]["frame_hex"]

    def test_request_frame_matches_golden(self, golden):
        frame = wire.encode_request(
            7, "perform", (O.Mkdir("/bucket/logs").to_wire(),), {})
        assert frame.hex() == golden["request_frame_hex"]

    def test_traced_request_frame_matches_golden(self, golden):
        frame = wire.encode_request(
            7, "perform", (O.Mkdir("/bucket/logs").to_wire(),), {},
            trace={"proc": "client", "span": 12})
        assert frame.hex() == golden["traced_request_frame_hex"]

    def test_response_frames_match_golden(self, golden):
        plain = wire.encode_response(7, result={"inode": 9})
        assert plain.hex() == golden["response_frame_hex"]
        timed = wire.encode_response(7, result={"inode": 9}, srv_us=321.5)
        assert timed.hex() == golden["timed_response_frame_hex"]

    def test_error_wire_matches_golden(self, golden):
        samples = {
            "NoSuchPathError": NoSuchPathError("/a/b", "b"),
            "TransactionAbort": TransactionAbort("exists", RowKey(5, "x")),
            "PermissionDeniedError":
                PermissionDeniedError("/a", Permission.WRITE),
            "RPCTimeoutError": RPCTimeoutError("127.0.0.1:7400", 30.0),
        }
        by_type = {entry["type"]: entry for entry in golden["errors"]}
        for name, exc in samples.items():
            assert error_to_wire(exc) == by_type[name]["wire"]


class TestOpWireRoundTrip:
    @pytest.mark.parametrize("op", SAMPLE_OPS,
                             ids=[type(op).__name__ for op in SAMPLE_OPS])
    def test_round_trip(self, op):
        restored = Op.from_wire(op.to_wire())
        assert restored == op
        assert type(restored) is type(op)

    def test_setattr_permission_restored_as_flag(self):
        restored = Op.from_wire(O.SetAttr("/p", Permission.READ).to_wire())
        assert isinstance(restored.permission, Permission)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Op.from_wire({"op": "chmodplus", "args": {}})

    def test_wire_dict_survives_json(self):
        for op in SAMPLE_OPS:
            assert Op.from_wire(json.loads(json.dumps(op.to_wire()))) == op


class TestValueCodec:
    def round_trip(self, value):
        return wire.from_jsonable(
            json.loads(json.dumps(wire.to_jsonable(value))))

    def test_scalars_and_containers(self):
        for value in (None, True, 7, 1.5, "x", [1, "a"], {"k": [2]}):
            assert self.round_trip(value) == value

    def test_tuple_identity_preserved(self):
        value = ("rename_commit", 3, "name", 4, ("nested", 1))
        restored = self.round_trip(value)
        assert restored == value
        assert isinstance(restored, tuple)
        assert isinstance(restored[4], tuple)

    def test_entry_kind_and_permission(self):
        assert self.round_trip(EntryKind.DIRECTORY) is EntryKind.DIRECTORY
        restored = self.round_trip(Permission.READ | Permission.WRITE)
        assert restored == Permission.READ | Permission.WRITE
        assert isinstance(restored, Permission)

    def test_dataclasses(self):
        dirent = Dirent(id=9, kind=EntryKind.OBJECT,
                        attrs=AttrMeta(id=9, kind=EntryKind.OBJECT, size=10,
                                       ctime=1.0, mtime=2.0))
        for value in (
                RowKey(3, "name"),
                dirent,
                Row(RowKey(3, "name"), dirent, version=4),
                AttrDelta(link_delta=1, entry_delta=-1, mtime=5.0),
                WriteIntent(RowKey(3, "n"), "insert", dirent),
                StatResult(path="/a", id=2, kind=EntryKind.DIRECTORY,
                           size=0, ctime=0.0, mtime=0.0, link_count=1,
                           entry_count=2, permission=Permission.ALL),
        ):
            assert self.round_trip(value) == value

    def test_envelopes_match_the_key_sorting_encoder_byte_for_byte(self):
        # encode_request/encode_response skip the JSON encoder's key sort
        # (to_jsonable inserts keys in order); pack_frame still sorts.
        dirent = Dirent(id=9, kind=EntryKind.OBJECT,
                        attrs=AttrMeta(id=9, kind=EntryKind.OBJECT))
        values = [
            None, True, 7, -1.5, "é\"\n", OpResult(42, rpcs=3),
            {"zeta": 1, "alpha": {"m": (1, 2), "b": [dirent]}, "Z": None},
            (("nested", Permission.READ), [RowKey(3, "n"), {"y": 0, "x": 1}]),
            Row(RowKey(3, "name"), dirent, version=4),
            WriteIntent(RowKey(3, "n"), "insert", dirent),
        ]
        for value in values:
            assert wire.encode_response(5, result=value, srv_us=1.25) == \
                wire.pack_frame({"srv_us": 1.25, "result":
                                 wire.to_jsonable(value), "ok": True, "id": 5})
            assert wire.encode_response(5, result=value, srv_us=9.5,
                                        srv_cpu_us=3.25, srv_queue_us=0.5) == \
                wire.pack_frame({"srv_us": 9.5, "srv_queue_us": 0.5,
                                 "srv_cpu_us": 3.25, "ok": True, "id": 5,
                                 "result": wire.to_jsonable(value)})
            trace = {"span": 9, "proc": "p"}
            kwargs = {"want": value, "also": 1}
            assert wire.encode_request(8, "m", (value, 2), kwargs, trace) == \
                wire.pack_frame({
                    "trace": trace, "method": "m", "id": 8,
                    "kwargs": {k: wire.to_jsonable(v)
                               for k, v in kwargs.items()},
                    "args": [wire.to_jsonable(value), 2]})

    def test_subclasses_travel_as_their_base_type(self):
        class Text(str):
            pass

        assert wire.to_jsonable(Text("x")) == "x"
        assert wire.to_jsonable(OpResult(42, rpcs=3)) == 42
        assert wire.from_jsonable({"__r__": OpResult(42, rpcs=3).to_wire()}) \
            .rpcs == 3

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class Stray:
            x: int = 0

        with pytest.raises(FrameError, match="unregistered"):
            wire.to_jsonable(Stray())
        with pytest.raises(FrameError, match="unknown wire type"):
            wire.from_jsonable({"__w__": "Stray", "f": {"x": 1}})

    def test_unregistered_type_rejected(self):
        class NotWire:
            pass

        with pytest.raises(FrameError):
            wire.to_jsonable(NotWire())

    def test_oversized_frame_rejected(self):
        huge = "x" * (wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            wire.pack_frame(huge)

    def test_undecodable_payload_rejected(self):
        with pytest.raises(FrameError):
            wire.unpack_payload(b"\xff\xfe not json")


class TestErrorCodec:
    CASES = [
        NoSuchPathError("/a/b", "b"),
        AlreadyExistsError("/a/b"),
        TransactionAbort("conflict", RowKey(7, "k")),
        PermissionDeniedError("/p", Permission.WRITE | Permission.EXECUTE),
        ServiceUnavailableError("db-0"),
        ConnectionLostError("127.0.0.1:1", "refused"),
        RPCTimeoutError("127.0.0.1:1", 2.5),
        FrameError("truncated frame"),
    ]

    @pytest.mark.parametrize("exc", CASES,
                             ids=[type(c).__name__ for c in CASES])
    def test_concrete_type_survives(self, exc):
        restored = error_from_wire(
            json.loads(json.dumps(error_to_wire(exc))))
        assert type(restored) is type(exc)
        assert str(restored) == str(exc)

    def test_transport_errors_are_service_unavailable(self):
        # The live retry contract: domain loops that retry on
        # ServiceUnavailableError transparently retry transport faults.
        for exc in (ConnectionLostError("e", "r"),
                    RPCTimeoutError("e", 1.0)):
            assert isinstance(exc, TransportError)
            assert isinstance(exc, ServiceUnavailableError)

    def test_unknown_error_degrades_to_metadata_error(self):
        restored = error_from_wire({"error": "NeverHeardOfIt",
                                    "args": ["boom"]})
        assert isinstance(restored, MetadataError)


class TestTraceEnvelope:
    """The trace-context / server-time fields are strictly additive: absent
    when tracing is off (old peers see the exact pre-trace bytes) and
    ignorable when present (old decoders just see extra keys)."""

    def test_untraced_request_is_byte_identical_to_pre_trace_frame(
            self, golden):
        # trace=None must not leave any residue in the envelope.
        frame = wire.encode_request(
            7, "perform", (O.Mkdir("/bucket/logs").to_wire(),), {},
            trace=None)
        assert frame.hex() == golden["request_frame_hex"]

    def test_trace_context_round_trips(self):
        frame = wire.encode_request(3, "prepare", (), {},
                                    trace={"proc": "proxy", "span": 44})
        payload = wire.unpack_payload(frame[4:])
        assert payload["trace"] == {"proc": "proxy", "span": 44}
        assert payload["method"] == "prepare"

    def test_old_frames_without_trace_still_decode(self):
        frame = wire.encode_request(3, "prepare", (), {})
        payload = wire.unpack_payload(frame[4:])
        assert "trace" not in payload
        # Server-side convention: absent context means an untraced caller.
        assert payload.get("trace") is None

    def test_srv_us_round_trips_and_is_optional(self):
        timed = wire.unpack_payload(
            wire.encode_response(9, result=1, srv_us=17.25)[4:])
        assert timed["srv_us"] == 17.25
        assert wire.decode_result(timed) == 1
        plain = wire.unpack_payload(wire.encode_response(9, result=1)[4:])
        assert "srv_us" not in plain
        # Client-side convention: missing srv_us charges the whole round
        # trip to the wire.
        assert plain.get("srv_us", 0.0) == 0.0

    def test_error_response_never_carries_srv_us(self):
        frame = wire.encode_response(
            9, error=NoSuchPathError("/a/b", "b"), srv_us=5.0)
        payload = wire.unpack_payload(frame[4:])
        assert "srv_us" not in payload
        with pytest.raises(NoSuchPathError):
            wire.decode_result(payload)


class TestMakeOpParity:
    def test_make_op_and_wire_agree(self):
        op = make_op("dirrename", "/x", "/y")
        assert Op.from_wire(op.to_wire()) == op
