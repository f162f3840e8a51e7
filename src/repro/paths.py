"""Path parsing and manipulation utilities.

COSS object keys look like filesystem paths ("/A/C/E/G").  Every system in
this reproduction resolves paths component by component, so parsing is on
the hot path of both the simulators and the unit tests; keep it allocation
light and strict about malformed inputs.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidPathError

#: Reserved name used by TafDB delta records (§5.2.1 Figure 8); user paths
#: must never contain it.
ATTR_SENTINEL = "/_ATTR"

_MAX_COMPONENT = 255
_MAX_DEPTH = 256


def split_path(path: str) -> List[str]:
    """Split an absolute path into validated components.

    >>> split_path("/A/C/E")
    ['A', 'C', 'E']
    >>> split_path("/")
    []
    """
    if not isinstance(path, str):
        raise InvalidPathError(path, "path must be a string")
    if not path.startswith("/"):
        raise InvalidPathError(path, "path must be absolute")
    if path == "/":
        return []
    # A trailing slash is tolerated (S3-style directory markers).
    trimmed = path[1:].rstrip("/")
    if not trimmed:
        return []
    parts = trimmed.split("/")
    if len(parts) > _MAX_DEPTH:
        raise InvalidPathError(path, f"deeper than {_MAX_DEPTH} levels")
    # Valid paths pass in C-level scans; the reserved ATTR_SENTINEL holds a
    # "/" and so can never be a component.  A fault is named by the loop.
    if ("" not in parts and "." not in parts and ".." not in parts
            and (len(trimmed) <= _MAX_COMPONENT
                 or max(map(len, parts)) <= _MAX_COMPONENT)):
        return parts
    for part in parts:
        if not part:
            raise InvalidPathError(path, "empty component")
        if part in (".", ".."):
            raise InvalidPathError(path, "'.'/'..' components are not allowed")
        if len(part) > _MAX_COMPONENT:
            raise InvalidPathError(path, f"component longer than {_MAX_COMPONENT}")
        if part == ATTR_SENTINEL:
            raise InvalidPathError(path, "reserved component name")
    return parts


def normalize(path: str) -> str:
    """Return the canonical form of ``path`` ("/" + components)."""
    return "/" + "/".join(split_path(path))


def parent_and_name(path: str) -> Tuple[str, str]:
    """Split a path into (parent path, final component).

    >>> parent_and_name("/A/C/E")
    ('/A/C', 'E')
    """
    parts = split_path(path)
    if not parts:
        raise InvalidPathError(path, "root has no parent")
    if len(parts) == 1:
        return "/", parts[0]
    return "/" + "/".join(parts[:-1]), parts[-1]


def is_prefix(prefix: str, path: str) -> bool:
    """True when ``prefix`` names ``path`` itself or one of its ancestors.

    >>> is_prefix("/A/C", "/A/C/E")
    True
    >>> is_prefix("/A/C", "/A/CE")
    False
    """
    pre = split_path(prefix)
    full = split_path(path)
    return len(pre) <= len(full) and full[: len(pre)] == pre


def ancestors(path: str) -> List[str]:
    """All strict ancestors of ``path`` from the root downwards.

    >>> ancestors("/A/C/E")
    ['/', '/A', '/A/C']
    """
    parts = split_path(path)
    result = ["/"]
    for i in range(1, len(parts)):
        result.append("/" + "/".join(parts[:i]))
    return result


def truncate_prefix(path: str, k: int) -> str:
    """Drop the final ``k`` components — the TopDirPathCache key rule.

    Resolving "/A/C/E/G/H" with k=3 consults the cache for "/A/C" (§5.1.1).
    Returns "/" when fewer than ``k`` components remain.

    >>> truncate_prefix("/A/C/E/G/H", 3)
    '/A/C'
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    parts = split_path(path)
    keep = len(parts) - k
    if keep <= 0:
        return "/"
    return "/" + "/".join(parts[:keep])
