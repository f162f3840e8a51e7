"""Length-prefixed JSON wire protocol for the live runtime.

Every frame is a 4-byte big-endian payload length followed by a compact,
key-sorted JSON document.  JSON (rather than msgpack, which the protocol
was also designed to carry) keeps the reproduction dependency-free.  Frames
are small — ops, rows, stat results — but an op crosses three hops, so
this codec runs six times per op: values go through a per-type dispatch
table (one dict lookup, field names computed once at registration).

Domain values cross the wire through a tagged encoding:

* registered dataclasses (``WriteIntent``, ``Dirent``, ...) and the
  ``RowKey`` named tuple become
  ``{"__w__": "TypeName", "f": {field: value, ...}}``;
* tuples become ``{"__t__": [...]}`` (JSON has no tuple, and shard routing
  and Raft commands rely on tuple identity);
* :class:`~repro.types.EntryKind` becomes ``{"__k__": "dir"|"obj"}`` and
  :class:`~repro.types.Permission` ``{"__p__": <int mask>}``;
* subclasses of the JSON scalars travel as their base type — an
  :class:`~repro.types.OpResult` is its inode id on the wire (the proxy
  ships its counters beside it); a ``{"__r__": {...}}`` document still
  decodes to one.

The exact byte format is pinned by the golden file in
``tests/runtime/golden_ops_wire.json`` — a change here that alters those
bytes is a protocol break between client and server versions, not a
refactor.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import (
    FrameError,
    MetadataError,
    error_from_wire,
    error_to_wire,
)
from repro.types import EntryKind, OpResult, Permission

#: Hard ceiling on one frame's payload; anything larger is a framing bug
#: (a readdir page tops out orders of magnitude below this).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
#: For trees :func:`to_jsonable` built: it inserts every dict's keys in
#: sorted order and shares no node, so the same bytes come out without the
#: encoder sorting or tracking cycles.
_dumps_tree = json.JSONEncoder(separators=(",", ":"),
                               check_circular=False).encode


# -- value codec --------------------------------------------------------------

def _same(value: Any) -> Any:
    return value


#: JSON scalars: containers test for these inline and skip the call.
_LEAVES = frozenset((str, int, float, bool, type(None)))


def _items(values) -> list:
    return [v if type(v) in _LEAVES else to_jsonable(v) for v in values]


#: Exact type -> encoder.  Seeded with the JSON-native and tagged builtin
#: types; registered dataclasses and resolved subclasses are added on first
#: use, so the steady state is one dict lookup per value.  Every dict an
#: encoder builds has its keys inserted in sorted order (``_dumps_tree``).
_ENCODERS: Dict[type, Callable[[Any], Any]] = {
    **dict.fromkeys(_LEAVES, _same),
    Permission: lambda value: {"__p__": int(value)},
    EntryKind: lambda value: {"__k__": value.value},
    tuple: lambda value: {"__t__": _items(value)},
    list: _items,
    dict: lambda value: {key: to_jsonable(value[key])
                         for key in sorted(value)},
}
_BUILTIN_TYPES = frozenset(_ENCODERS)

#: Wire tag -> dataclass.  Only types that actually cross a live RPC
#: boundary are registered; registration order is part of the protocol.
_WIRE_TYPES: Dict[str, Type] = {}

#: What ``json.loads`` yields that :func:`from_jsonable` has to look into.
_NESTED = (dict, list)

#: Single-key tag -> decoder of that key's value.
_TAG_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "__p__": Permission,
    "__k__": EntryKind,
    "__r__": OpResult.from_wire,
    "__t__": lambda items: tuple(from_jsonable(items)),
}


def _register_wire_types() -> None:
    # Imported lazily so ``repro.errors`` (which wire.py imports) can be
    # imported by these modules without a cycle.
    from repro.indexnode.server import RenamePrep
    from repro.indexnode.state import LookupOutcome
    from repro.tafdb.rows import AttrDelta, Dirent, Row, RowKey
    from repro.tafdb.shard import WriteIntent
    from repro.types import AccessMeta, AttrMeta, StatResult

    for cls in (RowKey, Dirent, AttrDelta, AttrMeta, Row, WriteIntent,
                AccessMeta, StatResult, LookupOutcome, RenamePrep):
        # RowKey is a NamedTuple: it travels under its field names like
        # the dataclasses, not as a bare tuple.
        names = (cls._fields if issubclass(cls, tuple)
                 else [f.name for f in dataclasses.fields(cls)])
        _WIRE_TYPES[cls.__name__] = cls
        _ENCODERS[cls] = _dataclass_encoder(cls.__name__, sorted(names))


def _dataclass_encoder(name: str, fields: List[str]):
    def encode(value: Any) -> Any:
        out = {}
        for field in fields:
            item = getattr(value, field)
            out[field] = item if type(item) in _LEAVES else to_jsonable(item)
        return {"__w__": name, "f": out}
    return encode


def _resolve_encoder(cls: type) -> Callable[[Any], Any]:
    """Slow path, once per type: register the wire dataclasses, or give a
    subclass of a builtin its base's encoder (first base in the MRO)."""
    if not _WIRE_TYPES:
        _register_wire_types()
        if cls in _ENCODERS:
            return _ENCODERS[cls]
    for base in cls.__mro__:
        if base in _BUILTIN_TYPES:
            _ENCODERS[cls] = _ENCODERS[base]
            return _ENCODERS[cls]
    if dataclasses.is_dataclass(cls):
        raise FrameError(f"unregistered wire type {cls.__name__}")
    raise FrameError(f"cannot encode {cls.__name__} on the wire")


def to_jsonable(value: Any) -> Any:
    """Recursively encode ``value`` into JSON-compatible structures."""
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _resolve_encoder(type(value))
    return encode(value)


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    kind = type(value)
    if kind is list:
        return [from_jsonable(v) if type(v) in _NESTED else v for v in value]
    if kind is not dict:
        return value
    if len(value) == 1:
        for tag, body in value.items():
            decode = _TAG_DECODERS.get(tag)
            if decode is not None:
                return decode(body)
    name = value.get("__w__")
    if name is not None:
        if not _WIRE_TYPES:
            _register_wire_types()
        cls = _WIRE_TYPES.get(name)
        if cls is None:
            raise FrameError(f"unknown wire type {name!r}")
        return cls(**{field: from_jsonable(v) if type(v) in _NESTED else v
                      for field, v in value.get("f", {}).items()})
    return {key: from_jsonable(v) if type(v) in _NESTED else v
            for key, v in value.items()}


# -- framing ------------------------------------------------------------------

def pack_frame(payload: Any) -> bytes:
    """Encode one message (already passed through :func:`to_jsonable` where
    needed) as a length-prefixed frame."""
    return _frame(_dumps(payload))


def _frame(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(data)} bytes exceeds limit")
    return _LEN.pack(len(data)) + data


def unpack_payload(data: bytes) -> Any:
    """Decode one frame's payload bytes (without the length prefix)."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from exc


class FrameDecoder:
    """Incremental frame splitter shared by the asyncio transport and the
    blocking client: feed it whatever the socket delivered — one byte, or
    fifty coalesced frames — and get back every complete payload."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Any]:
        """Payloads of the frames ``data`` completes, in order.  Raises
        :class:`~repro.errors.FrameError` on an oversized declared length
        or an undecodable payload; the stream is unusable after that."""
        buf = self._buf
        buf += data
        payloads = []
        pos, size = 0, len(buf)
        while size - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"declared frame length {length} exceeds limit")
            end = pos + _LEN.size + length
            if end > size:
                break
            payloads.append(unpack_payload(buf[pos + _LEN.size:end]))
            pos = end
        del buf[:pos]
        return payloads

    def check_eof(self) -> None:
        """The peer closed its end: a partial frame left behind is a
        truncation, not a clean close."""
        if self._buf:
            raise FrameError(
                f"truncated frame: {len(self._buf)} bytes of an unfinished "
                "frame at end of stream")


# -- request/response envelopes ---------------------------------------------

def encode_request(request_id: int, method: str, args: Tuple,
                   kwargs: Dict[str, Any],
                   trace: Optional[Dict[str, Any]] = None) -> bytes:
    """Encode one request frame.

    ``trace`` is optional cross-process span context —
    ``{"proc": <caller process name>, "span": <caller span id>}`` — added
    to the envelope only when tracing is on.  Frames without it are
    byte-identical to the pre-trace protocol (the golden file pins both
    shapes), so traced and untraced peers interoperate.
    """
    payload: Dict[str, Any] = {  # keys in sorted order, for _dumps_tree
        "args": _items(args),
        "id": request_id,
        "kwargs": to_jsonable(kwargs),
        "method": method,
    }
    if trace is not None:
        payload["trace"] = to_jsonable(trace)
    return _frame(_dumps_tree(payload))


def encode_response(request_id: int, result: Any = None,
                    error: Any = None, srv_us: Optional[float] = None,
                    srv_cpu_us: Optional[float] = None,
                    srv_queue_us: Optional[float] = None) -> bytes:
    """Encode one response frame.

    ``srv_us`` is the server-side handler wall time, stamped only when the
    server's tracer is on; the caller subtracts it from the round-trip
    time to isolate the wire cost (the live analogue of the simulator's
    modelled transit charge).  ``srv_cpu_us``/``srv_queue_us`` split it:
    time inside the handler's own steps, and from frame arrival to handler
    start.  Peers that predate them ignore them.
    """
    if error is not None:
        if not isinstance(error, MetadataError):
            error = MetadataError(
                f"{type(error).__name__}: {error}")
        return pack_frame({"id": request_id, "ok": False,
                           "error": error_to_wire(error)})
    payload: Dict[str, Any] = {"id": request_id, "ok": True,
                               "result": to_jsonable(result)}
    if srv_cpu_us is not None:
        payload["srv_cpu_us"] = srv_cpu_us
        payload["srv_queue_us"] = srv_queue_us
    if srv_us is not None:
        payload["srv_us"] = srv_us
    return _frame(_dumps_tree(payload))


def decode_result(payload: Dict[str, Any]) -> Any:
    """Turn a response payload into a result, raising the remote error."""
    if payload.get("ok"):
        return from_jsonable(payload.get("result"))
    raise error_from_wire(payload.get("error") or {})
