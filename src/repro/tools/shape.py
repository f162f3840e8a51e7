"""Export shape checking: the one declarative checker every ``validate_*``
in the repo calls.

A format declares its schema as data (:func:`check_shape` documents the
spec language) and keeps only its cross-field invariants as code, walking
array elements with :func:`shape_items`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

#: Marker in a list spec: the array must not be empty.
NONEMPTY = "+"

#: scalar spec -> (predicate, problem template over ``name``/``value``).
_SCALAR_SHAPES = {
    "any": (lambda v: v is not None, "missing {name}"),
    "str": (lambda v: isinstance(v, str) and bool(v), "missing {name}"),
    "text": (lambda v: isinstance(v, str), "missing {name}"),
    "str?": (lambda v: v is None or isinstance(v, str),
             "{name} must be a string or null"),
    "int": (lambda v: isinstance(v, int), "{name} must be an int"),
    "int>=0": (lambda v: isinstance(v, int) and v >= 0,
               "{name} must be a non-negative int"),
    "num": (lambda v: isinstance(v, (int, float)),
            "bad {name} {value!r} (want a number)"),
    "num>=0": (lambda v: isinstance(v, (int, float)) and v >= 0,
               "bad {name} {value!r} (want a non-negative number)"),
    "share": (lambda v: isinstance(v, (int, float)) and 0 <= v <= 1,
              "bad {name} {value!r} (want a number in [0, 1])"),
}


def check_shape(value: Any, spec: Any,
                what: str = "payload is not a JSON object",
                where: str = "", name: str = "") -> List[str]:
    """Check ``value`` against a declarative ``spec``; returns problems.

    A spec is one of

    * a dict ``{field: spec}`` — an object with at least those fields
      (``"field?"`` is checked only when present; ``{}`` is any object),
    * a list ``[spec]`` — an array of ``spec`` (``[]`` is any array;
      :data:`NONEMPTY` as an extra element forbids the empty array),
    * ``("enum", values[, word])`` / ``("enum?", values)`` — one of
      ``values`` (or null); ``word`` replaces "unknown" in the problem,
    * ``("const", value, problem)`` — exactly ``value``,
    * a scalar name: ``any`` (present), ``str`` (non-empty), ``text``,
      ``str?`` (string or null), ``int``, ``int>=0``, ``num``, ``num>=0``,
      ``share`` (a number in [0, 1]).

    ``what`` is the problem reported when the root is not an object.
    Problems read ``<where>: <problem>`` where ``where`` is the enclosing
    array element (``centers[3]``) and field names are dotted from there.
    """
    at = f"{where}: " if where else ""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            return [f"{at}{name} must be an object" if name
                    else f"{at}not an object" if where else what]
        problems: List[str] = []
        for field, sub in spec.items():
            key = field.rstrip("?")
            if key != field and key not in value:
                continue
            problems += check_shape(value.get(key), sub, what, where,
                                    f"{name}.{key}" if name else key)
        return problems
    if isinstance(spec, list):
        if not isinstance(value, list) or (NONEMPTY in spec and not value):
            return [f"{at}missing {name} array" if name
                    else f"{at}not a non-empty array"]
        if not spec or spec[0] == NONEMPTY:
            return []
        inner = f"{where}.{name}" if where and name else where or name
        return [problem for i, item in enumerate(value)
                for problem in check_shape(item, spec[0], what,
                                           f"{inner}[{i}]")]
    label = name or "value"
    if isinstance(spec, tuple):
        kind, expected = spec[0], spec[1]
        if kind == "const":
            return [] if value == expected else [at + spec[2]]
        if value in expected or (kind == "enum?" and value is None):
            return []
        word = spec[2] if len(spec) > 2 else "unknown"
        return [f"{at}{word} {label} {value!r}"]
    accepts, template = _SCALAR_SHAPES[spec]
    if accepts(value):
        return []
    return [at + template.format(name=label, value=value)]


def shape_items(payload: Any, field: str) -> List[Tuple[str, dict]]:
    """``(where, element)`` per object in ``payload[field]`` — the walk
    invariant checks share; whatever is not an object there has already
    been reported by :func:`check_shape`."""
    items = payload.get(field) if isinstance(payload, dict) else None
    if not isinstance(items, list):
        return []
    return [(f"{field}[{i}]", item) for i, item in enumerate(items)
            if isinstance(item, dict)]
