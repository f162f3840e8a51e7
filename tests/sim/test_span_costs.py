"""The span cost view: interned keys, one cost entry in two slots.

The tracer hands every span one shared tuple per distinct key and keeps a
span's first cost entry without a dict.  What readers see must not change:
``Span.costs``, ``queue_res``, ``queue_by`` and ``blocked`` hold exactly the
keys, values and insertion order a plain dict per span would, and so do
``open_costs``, ``unattributed`` and the JSON round trip.  Here seeded
random charge sequences run through ``Tracer.charge``/``charge_blocked``
beside such plain dicts.
"""

import gc
import random

import pytest

from repro.sim.trace import Tracer, span_from_jsonable, span_to_jsonable

KINDS = ("cpu", "fsync", "wire", "queue")
HOSTS = ("proxy-0", "index0", "tafdb-1", None)
RESOURCES = ("cpu", "disk", "latch")
OCCUPANTS = (None, ("mkdir", "t0"), ("objstat", None))
CAUSES = ("raft.commit", "tafdb.2pc")
#: Includes non-positive charges (dropped) and an int (stored as float).
AMOUNTS = (0.0, -1.0, 0.5, 1.25, 3.0, 7)


def _add(ref, key, us):
    ref[key] = ref.get(key, 0.0) + us


class _Reference:
    """The four cost maps of one span, as plain dicts."""

    def __init__(self):
        self.costs, self.queue_res, self.queue_by, self.blocked = \
            {}, {}, {}, {}


def _occupant_key(by, resource, host):
    op, tenant = by if by is not None else ("(unknown)", None)
    return (op, tenant, resource, host)


def _drive(seed, steps=300):
    """Random begin/charge/charge_blocked/end steps on one tracer.

    Returns the tracer, every span begun with its reference, the
    reference for charges with no span open, and the spans left open.
    """
    rng = random.Random(seed)
    tracer = Tracer()
    refs = {}
    unattributed = {}
    stack = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.2 or not stack and roll < 0.5:
            span = tracer.begin(f"s{len(refs)}", 0.0,
                                parent=stack[-1] if stack else None)
            refs[span.span_id] = (span, _Reference())
            stack.append(span)
        elif roll < 0.35 and stack:
            tracer.end(stack.pop(), 1.0)
        elif roll < 0.8:
            kind, host = rng.choice(KINDS), rng.choice(HOSTS)
            us = rng.choice(AMOUNTS)
            resource = by = None
            if kind == "queue" and rng.random() < 0.7:
                resource, by = rng.choice(RESOURCES), rng.choice(OCCUPANTS)
            tracer.charge(kind, us, host=host, resource=resource, by=by)
            if us <= 0.0:
                continue
            if not stack:
                _add(unattributed, (host, kind), us)
                continue
            ref = refs[stack[-1].span_id][1]
            _add(ref.costs, (kind, host), us)
            if resource is not None:
                _add(ref.queue_res, (resource, host), us)
                _add(ref.queue_by, _occupant_key(by, resource, host), us)
        else:
            cause, kind = rng.choice(CAUSES), rng.choice(KINDS)
            host, us = rng.choice(HOSTS), rng.choice(AMOUNTS)
            resource = by = None
            if rng.random() < 0.5:
                resource, by = "raft", rng.choice(OCCUPANTS)
            tracer.charge_blocked(cause, kind, us, host=host,
                                  resource=resource, by=by)
            if us <= 0.0 or not stack:
                continue
            ref = refs[stack[-1].span_id][1]
            _add(ref.blocked, (cause, kind, host), us)
            if resource is not None:
                _add(ref.queue_by, _occupant_key(by, resource, host), us)
    return tracer, refs, unattributed, stack


def _ordered(mapping):
    return list(mapping.items()) if mapping else []


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_cost_maps_equal_plain_dicts(seed):
    tracer, refs, unattributed, _open = _drive(seed)
    for span, ref in refs.values():
        for field in ("costs", "queue_res", "queue_by", "blocked"):
            want = getattr(ref, field)
            got = getattr(span, field)
            # None until the first charge, as before.
            assert (got is None) == (not want), (field, span)
            assert _ordered(got) == list(want.items()), (field, span)
            assert all(type(us) is float for us in (got or {}).values())
    assert tracer.unattributed == unattributed
    assert list(tracer.unattributed.items()) == list(unattributed.items())


def test_sequences_cover_every_shape():
    """The seeds above reach every case the two-slot form branches on."""
    sizes = set()
    tagged = blocked = 0
    for seed in SEEDS:
        _tracer, refs, _un, _open = _drive(seed)
        for span, ref in refs.values():
            sizes.add(min(len(ref.costs), 2))
            tagged += bool(ref.queue_by)
            blocked += bool(ref.blocked)
    assert sizes == {0, 1, 2}
    assert tagged and blocked


def test_repeated_key_sums_in_place():
    tracer = Tracer()
    span = tracer.begin("s", 0.0)
    tracer.charge("cpu", 2.0, host="h")
    tracer.charge("cpu", 0.5, host="h")
    assert dict(span.costs) == {("cpu", "h"): 2.5}
    tracer.charge("wire", 1.0, host="h")
    tracer.charge("cpu", 1.0, host="h")
    assert list(span.costs.items()) == [(("cpu", "h"), 3.5),
                                        (("wire", "h"), 1.0)]


def test_a_single_cost_span_holds_no_dict():
    tracer = Tracer()
    span = tracer.begin("s", 0.0)
    tracer.charge("cpu", 2.0, host="h")
    tracer.charge("cpu", 1.0, host="h")
    tracer.end(span, 1.0)
    assert not any(type(ref) is dict for ref in gc.get_referents(span))
    assert span.costs == {("cpu", "h"): 3.0}


def test_keys_are_interned_across_spans():
    tracer = Tracer()
    spans = []
    for _ in range(3):
        span = tracer.begin("s", 0.0)
        tracer.charge("queue", 1.0, host="h", resource="cpu",
                      by=("mkdir", "t0"))
        tracer.end(span, 1.0)
        spans.append(span)
    for field in ("costs", "queue_res", "queue_by"):
        keys = [next(iter(getattr(span, field))) for span in spans]
        assert keys[0] is keys[1] is keys[2], field


def test_costs_is_read_only():
    tracer = Tracer()
    span = tracer.begin("s", 0.0)
    tracer.charge("cpu", 1.0, host="h")
    with pytest.raises(TypeError):
        span.costs[("cpu", "h")] = 5.0
    tracer.charge("wire", 1.0, host="h")
    with pytest.raises(TypeError):
        span.costs[("cpu", "h")] = 5.0
    assert span.costs == {("cpu", "h"): 1.0, ("wire", "h"): 1.0}


@pytest.mark.parametrize("seed", SEEDS)
def test_json_round_trip(seed):
    _tracer, refs, _un, _open = _drive(seed)
    for span, _ref in refs.values():
        data = span_to_jsonable(span)
        back = span_from_jsonable(data)
        assert span_to_jsonable(back) == data
        for field in ("costs", "queue_res", "queue_by", "blocked"):
            assert _ordered(getattr(back, field)) == \
                _ordered(getattr(span, field)), field


@pytest.mark.parametrize("seed", SEEDS)
def test_open_costs_and_reset(seed):
    tracer, refs, _un, still_open = _drive(seed)
    want = {}
    for span in still_open:
        for (kind, host), us in refs[span.span_id][1].costs.items():
            _add(want, (host, kind), us)
    got = tracer.open_costs()
    assert list(got.items()) == list(want.items())

    tracer.reset()
    assert tracer.open_costs() == {}
    assert tracer.unattributed == {}
    assert tracer.started == tracer.finished == 0
    span = tracer.begin("after", 0.0)
    tracer.charge("cpu", 1.0, host="h")
    tracer.end(span, 1.0)
    assert span.span_id == 1
    assert span.costs == {("cpu", "h"): 1.0}
