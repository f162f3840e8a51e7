"""Exception hierarchy shared by every metadata service in the reproduction.

The paper's proxy layer surfaces a small set of error conditions to clients
(missing path components, duplicate names, permission failures, rename loops
and transaction aborts).  All four systems — Mantle and the three baselines —
raise the same exception types so workloads and benchmarks can treat them
uniformly.

The full hierarchy (every class derives from :class:`MetadataError`, so
``except MetadataError`` catches anything a metadata operation can raise)::

    MetadataError                  base class; catch-all for client code
    ├── NoSuchPathError            ENOENT: a path component is missing
    ├── AlreadyExistsError         EEXIST: target name already taken
    ├── NotADirectoryError         ENOTDIR: rmdir aimed at an object
    ├── IsADirectoryError          EISDIR: object op aimed at a directory
    ├── NotEmptyError              ENOTEMPTY: rmdir of a non-empty directory
    ├── PermissionDeniedError      EACCES: aggregated path permission failed
    ├── InvalidPathError           malformed path string (client-side)
    ├── RenameLoopError            dirrename would create a namespace cycle
    ├── RenameLockConflict         loop detection hit another rename's lock
    ├── TransactionAbort           TafDB optimistic-concurrency conflict
    ├── ServiceUnavailableError    no Raft leader / server crashed; retryable
    │   └── TransportError         live-runtime transport fault (retryable)
    │       ├── ConnectionLostError  TCP connect/reset/EOF mid-call
    │       ├── RPCTimeoutError      response deadline expired
    │       └── FrameError           truncated or malformed wire frame
    └── StaleReadError             replica applyIndex too old for the read

Retry semantics: ``TransactionAbort``, ``RenameLockConflict``,
``ServiceUnavailableError`` and ``StaleReadError`` are *transient* — proxies
retry them internally with backoff, and :class:`~repro.sim.stats.OpContext`
counts each retry.  The rest describe the namespace state and surface
directly to the caller; :class:`~repro.core.api.MantleClient` lets them
propagate (per-op in :meth:`~repro.core.api.MantleClient.batch`, where they
land in ``BatchResult.error`` instead of raising).

The :class:`TransportError` branch exists for the live asyncio runtime
(``repro/runtime/``): a dropped connection, an expired RPC deadline or a
truncated frame all map onto the same *logical* fault the simulator models
with a crashed host — "the service did not answer; retry" — so every retry
loop written against ``except ServiceUnavailableError`` handles live
transport faults without modification, and
:class:`~repro.runtime.client.LiveClient` raises the same exception types
:class:`~repro.core.api.MantleClient` does for the same conditions.

:func:`error_to_wire` / :func:`error_from_wire` round-trip this hierarchy
across the JSON wire protocol so a server-side exception re-raises as the
identical type (with its structured fields) in the calling client process.
"""


class MetadataError(Exception):
    """Base class for every error raised by a metadata service."""


class NoSuchPathError(MetadataError):
    """A path component does not exist (ENOENT)."""

    def __init__(self, path, component=None):
        self.path = path
        self.component = component
        detail = f" (missing component {component!r})" if component else ""
        super().__init__(f"no such path: {path!r}{detail}")


class AlreadyExistsError(MetadataError):
    """The target name already exists in its parent directory (EEXIST)."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"already exists: {path!r}")


class NotADirectoryError(MetadataError):
    """rmdir aimed at an object (ENOTDIR)."""

    def __init__(self, path, component=None):
        self.path = path
        self.component = component
        super().__init__(f"not a directory: {path!r} at {component!r}")


class IsADirectoryError(MetadataError):
    """An object operation targeted a directory (EISDIR)."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"is a directory: {path!r}")


class NotEmptyError(MetadataError):
    """rmdir on a directory that still has children (ENOTEMPTY)."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"directory not empty: {path!r}")


class PermissionDeniedError(MetadataError):
    """Aggregated path permission check failed (EACCES)."""

    def __init__(self, path, needed):
        self.path = path
        self.needed = needed
        super().__init__(f"permission denied on {path!r} (needed {needed!r})")


class RenameLoopError(MetadataError):
    """A dirrename would move a directory underneath itself."""

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        super().__init__(f"rename loop: {src!r} -> {dst!r}")


class InvalidPathError(MetadataError):
    """Malformed path string (empty component, missing leading slash, ...)."""

    def __init__(self, path, reason):
        self.path = path
        self.reason = reason
        super().__init__(f"invalid path {path!r}: {reason}")


class TransactionAbort(MetadataError):
    """A (distributed) TafDB transaction aborted due to a conflict.

    Proxies retry aborted transactions with backoff; the abort/retry rate is
    the mechanism behind the contention collapse in Figure 4b and the win of
    delta records in Figures 14-16.
    """

    def __init__(self, reason="conflict", key=None):
        self.reason = reason
        self.key = key
        super().__init__(f"transaction aborted: {reason} (key={key!r})")


class RenameLockConflict(MetadataError):
    """Loop-detection found a directory already locked by another rename."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"rename lock conflict on {path!r}")


class ServiceUnavailableError(MetadataError):
    """Raft group has no leader / server crashed; caller should retry."""

    def __init__(self, what="service"):
        self.what = what
        super().__init__(f"{what} temporarily unavailable")


class StaleReadError(MetadataError):
    """A replica could not serve a consistent read (applyIndex too old)."""

    def __init__(self, needed, have):
        self.needed = needed
        self.have = have
        super().__init__(f"stale replica: need applyIndex>={needed}, have {have}")


class TransportError(ServiceUnavailableError):
    """A live-runtime transport fault.

    Deliberately a :class:`ServiceUnavailableError`: the simulator models
    "server did not answer" with crashed hosts, and every proxy retry loop
    is written against that type — subclassing makes a real TCP fault take
    the exact same retry path, with no live-only branches in domain code.
    """

    def __init__(self, what="transport", detail=""):
        self.detail = detail
        super().__init__(what)
        if detail:
            self.args = (f"{self.args[0]}: {detail}",)


class ConnectionLostError(TransportError):
    """TCP connect refused, reset, or EOF arrived mid-call."""

    def __init__(self, endpoint, detail=""):
        self.endpoint = endpoint
        super().__init__(f"connection to {endpoint}", detail)


class RPCTimeoutError(TransportError):
    """The per-call response deadline expired."""

    def __init__(self, endpoint, timeout_s=0.0):
        self.endpoint = endpoint
        self.timeout_s = timeout_s
        super().__init__(f"rpc to {endpoint}",
                         f"no response within {timeout_s:g}s")


class FrameError(TransportError):
    """A wire frame was truncated or failed to decode."""

    def __init__(self, detail):
        super().__init__("wire framing", detail)


#: Exception class -> attribute names, in constructor-argument order.  Every
#: attribute value must be JSON-encodable after the special cases handled in
#: :func:`error_to_wire` (Permission masks and RowKeys).
_WIRE_FIELDS = {
    NoSuchPathError: ("path", "component"),
    AlreadyExistsError: ("path",),
    NotADirectoryError: ("path", "component"),
    IsADirectoryError: ("path",),
    NotEmptyError: ("path",),
    PermissionDeniedError: ("path", "needed"),
    RenameLoopError: ("src", "dst"),
    InvalidPathError: ("path", "reason"),
    TransactionAbort: ("reason", "key"),
    RenameLockConflict: ("path",),
    StaleReadError: ("needed", "have"),
    ConnectionLostError: ("endpoint", "detail"),
    RPCTimeoutError: ("endpoint", "timeout_s"),
    FrameError: ("detail",),
    TransportError: ("what", "detail"),
    ServiceUnavailableError: ("what",),
}

_WIRE_CLASSES = {cls.__name__: cls for cls in _WIRE_FIELDS}


def error_to_wire(exc: MetadataError) -> dict:
    """Encode a metadata exception as a JSON-safe payload.

    The payload carries the concrete class name plus its constructor
    arguments, so :func:`error_from_wire` rebuilds the *same type* with the
    same structured fields — which is what lets a LiveClient surface
    server-side errors exactly as the in-process client would.
    """
    cls = type(exc)
    fields = _WIRE_FIELDS.get(cls)
    if fields is None:
        # Unknown subclass: degrade to the message under the base type.
        return {"error": "MetadataError", "args": [str(exc)]}
    args = []
    for field in fields:
        value = getattr(exc, field, None)
        if field == "needed" and cls is PermissionDeniedError \
                and value is not None:
            value = int(value)
        elif field == "key" and value is not None:
            value = [value.pid, value.name, value.ts]
        args.append(value)
    return {"error": cls.__name__, "args": args}


def error_from_wire(payload: dict) -> MetadataError:
    """Rebuild the exception :func:`error_to_wire` encoded."""
    cls = _WIRE_CLASSES.get(payload.get("error", ""))
    args = list(payload.get("args", []))
    if cls is None:
        return MetadataError(*(args or ["remote metadata error"]))
    if cls is PermissionDeniedError and len(args) > 1 \
            and args[1] is not None:
        from repro.types import Permission
        args[1] = Permission(args[1])
    elif cls is TransactionAbort and len(args) > 1 and args[1] is not None:
        from repro.tafdb.rows import RowKey
        args[1] = RowKey(*args[1])
    return cls(*args)
