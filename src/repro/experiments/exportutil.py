"""The export contract every ``mantle-exp`` artifact goes through.

One function — :func:`write_export` — derives the default file name from
the view, target and system, validates the payload *before* writing (a
malformed artifact should fail the run, not surface later in a viewer),
and writes it.  The three steps are also usable on their own
(``mantle-exp live`` names, validates and writes at different moments).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional, Sequence


def default_out(kind: str, name: str, suffix: str = "") -> str:
    """Default artifact path ``<kind>_<name><suffix>`` (cwd-relative).

    ``name`` is sanitised so figure/op labels can never escape into
    directory separators or break shell quoting.
    """
    safe = name.replace("/", "_").replace(" ", "_")
    return f"{kind}_{safe}{suffix}"


def ensure_valid(problems: Sequence[str], what: str,
                 limit: int = 5) -> None:
    """Raise ``RuntimeError`` summarising validator ``problems``, if any."""
    if not problems:
        return
    shown = "; ".join(problems[:limit])
    extra = len(problems) - limit
    if extra > 0:
        shown += f" (+{extra} more)"
    raise RuntimeError(f"{what} failed schema validation: {shown}")


def write_json_payload(path: str, payload: Any, indent: int = 1) -> Any:
    """Write ``payload`` as JSON to ``path``; returns the payload."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, default=str)
        handle.write("\n")
    return payload


def write_lines(path: str, lines: Sequence[str]) -> None:
    """Write ``lines`` newline-terminated to ``path``."""
    with open(path, "w") as handle:
        handle.writelines(line + "\n" for line in lines)


def write_export(out_dir: str, view: str, target: str,
                 system: Optional[str], suffix: str, payload: Any,
                 validate: Callable[[Any], Sequence[str]],
                 write: Callable[[str, Any], Any] = write_json_payload,
                 ) -> str:
    """The one export step: name, validate, and only then write.

    The file is ``<out_dir>/<view>_<target>[_<system>]<suffix>`` — the
    system part is dropped for whole-target exports and where it would
    only repeat the target (the multitenant scenario).  Raises
    ``RuntimeError`` and writes nothing when ``validate`` reports
    problems.  Returns the path written.
    """
    name = target if system in (None, target) else f"{target}_{system}"
    path = os.path.join(out_dir, default_out(view, name, suffix))
    ensure_valid(validate(payload), path)
    os.makedirs(out_dir or ".", exist_ok=True)
    write(path, payload)
    return path
