"""Windowed time-series telemetry sampled in *simulated* time.

Where :mod:`repro.sim.trace` answers "where did this one operation's time
go?", this module answers "what was the whole cluster doing over the run?"
A :class:`Telemetry` registry holds four instrument kinds, all bucketed
into fixed windows of simulated microseconds (default 10 ms sim):

* :class:`Counter` — monotonic per-window sums (`fsync` count, cache hits,
  transaction aborts by cause).  :meth:`Counter.add_interval` spreads a
  busy interval across the windows it overlaps, which is how per-host CPU
  busy-fraction is accumulated without sampling error.
* :class:`Gauge` — a time-weighted level (RPCs in flight, resource queue
  depth, invalidator backlog).  Each window records the time integral of
  the value, the observed time, and the max, so the per-window mean is
  exact regardless of how irregularly the value changes.
* :class:`Histogram` — per-window count/sum/max of point samples (Raft
  batch sizes, apply lag, RPC latency, resource queue waits).
* :class:`Digest` — a histogram whose windows also keep a mergeable
  quantile :class:`Sketch` (log-spaced buckets, DDSketch layout), used
  for per-op-type completion latencies: p50/p99/p999 are recoverable per
  window, across the digests :func:`window_sketches` merges, or across
  processes after :meth:`Digest.merge`, with relative error bounded by
  :data:`DIGEST_ALPHA`.  The same :class:`Sketch` backs the tracer's
  tail-keep thresholds.

Mirroring the tracer's on/off design, the disabled registry is a shared
no-op singleton (:data:`NULL_TELEMETRY`); every instrumentation site
guards on ``telemetry.enabled``, so a run with telemetry off pays one
attribute load and a boolean test per site.  The registry never creates
simulator events, never advances time and never touches an RNG —
enabling it cannot change any simulated result (pinned by
``tests/experiments/test_fastpath_determinism.py``).

Enable per deployment with ``MantleConfig(telemetry=True)``, process-wide
with ``MANTLE_TELEMETRY=1``, or attach to a live simulator::

    from repro.sim.telemetry import Telemetry
    system.sim.telemetry = Telemetry(window_us=10_000.0)
"""

from __future__ import annotations

import bisect
import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.tools.shape import check_shape

#: Default sampling window: 10 ms of simulated time.
DEFAULT_WINDOW_US = 10_000.0

#: Digest relative-error bound: any quantile estimate ``q̂`` of a true
#: value ``q`` above :data:`DIGEST_MIN_VALUE_US` satisfies
#: ``|q̂ - q| <= DIGEST_ALPHA * q`` (the DDSketch guarantee).
DIGEST_ALPHA = 0.01

#: Values at or below this land in bucket 0 and report exactly this value
#: (absolute error <= 1 us — under every cost in the model).
DIGEST_MIN_VALUE_US = 1.0

#: Bucket indices clamp here, so a digest is fixed-size regardless of the
#: value range: 2047 buckets at alpha=1% span [1us, ~1.5e17us].
DIGEST_MAX_BUCKET = 2047

_DIGEST_GAMMA = (1.0 + DIGEST_ALPHA) / (1.0 - DIGEST_ALPHA)
_DIGEST_LOG_GAMMA = math.log(_DIGEST_GAMMA)

#: Per-op-type completion-latency digests are named ``<prefix><op name>``
#: (``op.latency_us.mkdir``, ...); recorded by ``MetadataSystem.perform``
#: whenever telemetry is enabled, simulated and live alike.
OP_LATENCY_DIGEST_PREFIX = "op.latency_us."

#: Column order of every exported row (CSV header / JSON keys).
EXPORT_COLUMNS = ("metric", "kind", "host", "window_start_us", "value",
                  "count", "max", "capacity")


def _telemetry_default() -> bool:
    """Telemetry is off unless ``MANTLE_TELEMETRY`` enables it."""
    return os.environ.get("MANTLE_TELEMETRY", "0").lower() in (
        "1", "true", "on", "yes")


class Counter:
    """Per-window monotonic sums."""

    kind = "counter"

    __slots__ = ("name", "host", "capacity", "window_us", "windows", "total")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> sum of increments landing in that window.
        self.windows: Dict[int, float] = {}
        self.total = 0.0

    def add(self, now: float, amount: float = 1.0) -> None:
        idx = int(now // self.window_us)
        windows = self.windows
        windows[idx] = windows.get(idx, 0.0) + amount
        self.total += amount

    def add_interval(self, start: float, end: float,
                     amount: Optional[float] = None) -> None:
        """Spread ``amount`` (default: the interval length) over
        ``[start, end)`` proportionally to each window's overlap."""
        if amount is None:
            amount = end - start
        if end <= start:
            self.add(start, amount)
            return
        w = self.window_us
        first = int(start // w)
        last = int(end // w)
        windows = self.windows
        if first == last:
            windows[first] = windows.get(first, 0.0) + amount
        else:
            scale = amount / (end - start)
            for idx in range(first, last + 1):
                lo = start if idx == first else idx * w
                hi = end if idx == last else (idx + 1) * w
                if hi > lo:
                    windows[idx] = windows.get(idx, 0.0) + (hi - lo) * scale
        self.total += amount

    def series(self) -> List[Tuple[float, float]]:
        """``[(window_start_us, sum)]`` sorted by window."""
        w = self.window_us
        return [(idx * w, self.windows[idx]) for idx in sorted(self.windows)]

    def sum_clipped(self, lo: float, hi: float) -> float:
        """Total over ``[lo, hi)``, prorating windows that only partially
        overlap (assumes increments are uniform within a window)."""
        w = self.window_us
        total = 0.0
        for idx, val in self.windows.items():
            start = idx * w
            overlap = min(start + w, hi) - max(start, lo)
            if overlap > 0:
                total += val * (overlap / w)
        return total


class Gauge:
    """Time-weighted level.  Per window we keep the integral of the value
    over time, the observed duration and the max, so ``mean = integral /
    observed`` is exact for arbitrarily irregular updates."""

    kind = "gauge"

    __slots__ = ("name", "host", "capacity", "window_us", "windows",
                 "value", "_last_us")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> [value*dt integral, observed dt, max value].
        self.windows: Dict[int, List[float]] = {}
        self.value = 0.0
        self._last_us: Optional[float] = None

    def _observe(self, idx: int, vdt: float, dt: float, level: float) -> None:
        cell = self.windows.get(idx)
        if cell is None:
            self.windows[idx] = [vdt, dt, level]
        else:
            cell[0] += vdt
            cell[1] += dt
            if level > cell[2]:
                cell[2] = level

    def _advance(self, now: float) -> None:
        last = self._last_us
        if last is None or now <= last:
            self._last_us = now if (last is None or now > last) else last
            return
        w = self.window_us
        level = self.value
        first = int(last // w)
        end_idx = int(now // w)
        if first == end_idx:
            self._observe(first, level * (now - last), now - last, level)
        else:
            for idx in range(first, end_idx + 1):
                lo = last if idx == first else idx * w
                hi = now if idx == end_idx else (idx + 1) * w
                if hi > lo:
                    self._observe(idx, level * (hi - lo), hi - lo, level)
        self._last_us = now

    def set(self, now: float, value: float) -> None:
        self._advance(now)
        self.value = value
        # Make a zero-duration spike visible in the window max.
        self._observe(int(now // self.window_us), 0.0, 0.0, value)

    def adjust(self, now: float, delta: float) -> None:
        self.set(now, self.value + delta)

    def finalize(self, now: float) -> None:
        """Account the held value up to ``now`` (end of run)."""
        self._advance(now)

    def series(self) -> List[Tuple[float, float, float]]:
        """``[(window_start_us, time-weighted mean, observed_us)]``."""
        w = self.window_us
        out = []
        for idx in sorted(self.windows):
            vdt, dt, _mx = self.windows[idx]
            out.append((idx * w, (vdt / dt) if dt > 0 else 0.0, dt))
        return out

    def mean_over(self, lo: Optional[float] = None,
                  hi: Optional[float] = None) -> float:
        """Time-weighted mean over windows intersecting ``[lo, hi)``."""
        w = self.window_us
        vdt_sum = 0.0
        dt_sum = 0.0
        for idx, (vdt, dt, _mx) in self.windows.items():
            start = idx * w
            if (lo is None or start + w > lo) and (hi is None or start < hi):
                vdt_sum += vdt
                dt_sum += dt
        return (vdt_sum / dt_sum) if dt_sum > 0 else 0.0


class Histogram:
    """Per-window count/sum/max of point samples."""

    kind = "histogram"

    __slots__ = ("name", "host", "capacity", "window_us", "windows")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> [count, sum, max].
        self.windows: Dict[int, List[Any]] = {}

    def record(self, now: float, value: float) -> None:
        idx = int(now // self.window_us)
        cell = self.windows.get(idx)
        if cell is None:
            self.windows[idx] = [1, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            if value > cell[2]:
                cell[2] = value


def digest_bucket(value: float) -> int:
    """Log-spaced bucket index of ``value`` (DDSketch layout).

    Bucket ``i >= 1`` covers ``(gamma^(i-1), gamma^i] * MIN``; bucket 0
    holds everything at or below :data:`DIGEST_MIN_VALUE_US`.  Pure
    arithmetic on the recorded float, so bit-identical inputs bucket
    identically on every kernel.
    """
    if value <= DIGEST_MIN_VALUE_US:
        return 0
    idx = int(math.ceil(
        math.log(value / DIGEST_MIN_VALUE_US) / _DIGEST_LOG_GAMMA))
    return min(max(idx, 1), DIGEST_MAX_BUCKET)


def digest_bucket_value(index: int) -> float:
    """The representative value reported for a bucket.

    ``2 * gamma^i / (gamma + 1)`` is the estimate that makes the relative
    error symmetric: at most :data:`DIGEST_ALPHA` anywhere in the bucket.
    """
    if index <= 0:
        return DIGEST_MIN_VALUE_US
    return DIGEST_MIN_VALUE_US * 2.0 * (_DIGEST_GAMMA ** index) \
        / (_DIGEST_GAMMA + 1.0)


class Sketch:
    """Sample counts per :func:`digest_bucket` — the one bucket map behind
    the latency digests, the phase p99s and the tracer's tail-keep
    thresholds.

    Merging is bucket-count addition: associative, commutative and exactly
    order-independent.  Keys stay sorted, so :meth:`items` is the
    ascending wire form and :meth:`quantile` walks down from the largest
    bucket: a tail quantile is a few steps from the top, and the keeper
    asks for one per finished root.
    """

    __slots__ = ("counts", "keys", "total")

    def __init__(self, items: Iterable[Tuple[int, int]] = ()):
        counts: Dict[int, int] = {}
        for bucket, count in items:
            counts[bucket] = counts.get(bucket, 0) + count
        #: bucket index -> samples in it.
        self.counts = counts
        #: the bucket indexes in ``counts``, ascending.
        self.keys = sorted(counts)
        self.total = sum(counts.values())

    def record(self, value: float) -> None:
        bucket = digest_bucket(value)
        count = self.counts.get(bucket)
        if count is None:
            self.counts[bucket] = 1
            bisect.insort(self.keys, bucket)
        else:
            self.counts[bucket] = count + 1
        self.total += 1

    def merge(self, other: "Sketch") -> None:
        """Add another sketch's bucket counts to this one."""
        counts = self.counts
        for bucket, count in other.counts.items():
            counts[bucket] = counts.get(bucket, 0) + count
        self.keys = sorted(counts)
        self.total += other.total

    def items(self) -> List[Tuple[int, int]]:
        """``[(bucket, count)]`` in ascending bucket order."""
        counts = self.counts
        return [(bucket, counts[bucket]) for bucket in self.keys]

    def quantile(self, q: float) -> float:
        """The sample at integer rank ``ceil(q * total) - 1``, within
        :data:`DIGEST_ALPHA` of the true one; 0.0 when empty."""
        total = self.total
        if not total:
            return 0.0
        # The lowest bucket whose cumulative count exceeds the rank is the
        # lowest one with fewer than ``total - rank`` samples above it.
        need = total - max(0, int(math.ceil(q * total)) - 1)
        above = 0
        counts = self.counts
        keys = self.keys
        i = len(keys) - 1
        while i > 0 and above + counts[keys[i]] < need:
            above += counts[keys[i]]
            i -= 1
        return digest_bucket_value(keys[i])


class Digest(Histogram):
    """A :class:`Histogram` whose windows also keep a :class:`Sketch`.

    A window is ``[sketch, sum, max]``; the sketch carries its count.
    Any quantile is recoverable per window, or across digests merged
    here or from other processes, with relative error at most
    :data:`DIGEST_ALPHA`; bucket addition makes p50/p99/p999 timelines
    export byte-identically however the windows were accumulated.
    """

    kind = "digest"

    __slots__ = ()

    def record(self, now: float, value: float) -> None:
        idx = int(now // self.window_us)
        cell = self.windows.get(idx)
        if cell is None:
            cell = self.windows[idx] = [Sketch(), 0.0, value]
        elif value > cell[2]:
            cell[2] = value
        cell[0].record(value)
        cell[1] += value

    def merge(self, other: "Digest") -> None:
        """Fold another digest's windows into this one (bucket addition)."""
        for idx, (sketch, total, mx) in other.windows.items():
            cell = self.windows.get(idx)
            if cell is None:
                cell = self.windows[idx] = [Sketch(), 0.0, mx]
            elif mx > cell[2]:
                cell[2] = mx
            cell[0].merge(sketch)
            cell[1] += total

    @property
    def total_count(self) -> int:
        return sum(cell[0].total for cell in self.windows.values())

    def to_jsonable(self) -> Dict[str, Any]:
        """Wire form for cross-process aggregation (obs snapshots)."""
        return {
            "metric": self.name,
            "host": self.host or "",
            "window_us": self.window_us,
            "alpha": DIGEST_ALPHA,
            "min_value_us": DIGEST_MIN_VALUE_US,
            "windows": [
                {"window_start_us": idx * self.window_us,
                 "count": sketch.total, "sum": total, "max": mx,
                 "buckets": [[b, c] for b, c in sketch.items()]}
                for idx, (sketch, total, mx) in sorted(self.windows.items())],
        }


def digest_from_jsonable(data: Dict[str, Any]) -> Digest:
    """Rebuild a :class:`Digest` from :meth:`Digest.to_jsonable` output."""
    digest = Digest(data["metric"], data.get("host") or None,
                    float(data["window_us"]))
    for window in data.get("windows", ()):
        # Round, not floor: ``idx * window_us / window_us`` can land just
        # below ``idx`` (window 5 of a 333.3 us digest reads 4.999...).
        idx = round(float(window["window_start_us"]) / digest.window_us)
        sketch = Sketch((int(b), int(c)) for b, c in window.get("buckets", ()))
        digest.windows[idx] = [sketch, float(window.get("sum", 0.0)),
                               float(window.get("max", 0.0))]
    return digest


def window_sketches(digests: Iterable[Digest]) -> Dict[int, Sketch]:
    """Window index -> one sketch of every digest's samples in that window
    (the digests share one window length)."""
    merged: Dict[int, Sketch] = {}
    for digest in digests:
        for idx, cell in digest.windows.items():
            sketch = merged.get(idx)
            if sketch is None:
                sketch = merged[idx] = Sketch()
            sketch.merge(cell[0])
    return merged


def latency_digests(telemetry) -> List[Tuple[str, Digest]]:
    """``[(op name, digest)]`` for every per-op completion-latency digest
    in the registry, sorted by op name (works on any registry object)."""
    prefix = OP_LATENCY_DIGEST_PREFIX
    return [(inst.name[len(prefix):], inst)
            for inst in telemetry.instruments()
            if inst.kind == "digest" and inst.name.startswith(prefix)]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "digest": Digest}


class Telemetry:
    """Registry of instruments keyed by ``(kind, name, host)``.

    Instruments are created on first use (``counter()`` / ``gauge()`` /
    ``histogram()`` are get-or-create), so instrumentation sites don't
    need registration ceremony and a registry attached to a *live*
    simulator picks up every subsequent event.
    """

    enabled = True

    def __init__(self, window_us: float = DEFAULT_WINDOW_US):
        if window_us <= 0:
            raise ValueError(f"telemetry window must be positive: {window_us}")
        self.window_us = float(window_us)
        self._instruments: Dict[Tuple[str, str, Optional[str]], Any] = {}

    def _get(self, kind: str, name: str, host: Optional[str],
             capacity: float):
        key = (kind, name, host)
        inst = self._instruments.get(key)
        if inst is None:
            inst = _KINDS[kind](name, host, self.window_us, capacity)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, host: Optional[str] = None,
                capacity: float = 0.0) -> Counter:
        return self._get("counter", name, host, capacity)

    def gauge(self, name: str, host: Optional[str] = None,
              capacity: float = 0.0) -> Gauge:
        return self._get("gauge", name, host, capacity)

    def histogram(self, name: str, host: Optional[str] = None,
                  capacity: float = 0.0) -> Histogram:
        return self._get("histogram", name, host, capacity)

    def digest(self, name: str, host: Optional[str] = None,
               capacity: float = 0.0) -> Digest:
        return self._get("digest", name, host, capacity)

    # -- read side ---------------------------------------------------------

    def instruments(self) -> List[Any]:
        """All instruments, sorted by (name, host, kind) for determinism."""
        return [self._instruments[k] for k in
                sorted(self._instruments,
                       key=lambda k: (k[1], k[2] or "", k[0]))]

    def find(self, name: str, host: Optional[str] = None):
        """The instrument with this name/host, any kind, or ``None``."""
        for kind in _KINDS:
            inst = self._instruments.get((kind, name, host))
            if inst is not None:
                return inst
        return None

    def hosts(self, name: str) -> List[str]:
        """Sorted hosts that have an instrument called ``name``."""
        out = {key[2] for key in self._instruments
               if key[1] == name and key[2] is not None}
        return sorted(out)

    def finalize(self, now: float) -> None:
        """Close out gauge integrals at end of run (idempotent)."""
        for inst in self._instruments.values():
            if inst.kind == "gauge":
                inst.finalize(now)

    # -- export ------------------------------------------------------------

    def export_rows(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """One dict per (instrument, window), columns :data:`EXPORT_COLUMNS`.

        ``value`` is the window sum (counter), time-weighted mean (gauge),
        sample mean (histogram) or p99 (digest); ``count`` is the observed
        microseconds (gauge) or sample count (histogram, digest);
        ``capacity`` is the normalisation constant (cores for CPU busy
        counters) or 0.
        """
        if now is not None:
            self.finalize(now)
        rows: List[Dict[str, Any]] = []
        for inst in self.instruments():
            if inst.kind == "counter":
                triples = [(start, val, 0.0, 0.0)
                           for start, val in inst.series()]
            elif inst.kind == "gauge":
                w = inst.window_us
                triples = [(idx * w, (c[0] / c[1]) if c[1] > 0 else 0.0,
                            c[1], c[2])
                           for idx, c in sorted(inst.windows.items())]
            elif inst.kind == "digest":
                w = inst.window_us
                triples = [(idx * w, c[0].quantile(0.99),
                            float(c[0].total), c[2])
                           for idx, c in sorted(inst.windows.items())]
            else:
                w = inst.window_us
                triples = [(idx * w, (c[1] / c[0]) if c[0] else 0.0,
                            float(c[0]), c[2])
                           for idx, c in sorted(inst.windows.items())]
            for start, value, count, mx in triples:
                rows.append({
                    "metric": inst.name,
                    "kind": inst.kind,
                    "host": inst.host or "",
                    "window_start_us": start,
                    "value": value,
                    "count": count,
                    "max": mx,
                    "capacity": inst.capacity,
                })
        return rows

    def write_csv(self, path: str, now: Optional[float] = None) -> int:
        """Write :meth:`export_rows` as CSV; returns the row count."""
        rows = self.export_rows(now)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(EXPORT_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row[col])
                                  for col in EXPORT_COLUMNS) + "\n")
        return len(rows)

    def export_payload(self, now: Optional[float] = None,
                       extra: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
        """Build the ``{"window_us", "rows", **extra}`` export payload.

        This is the JSON document ``write_json`` persists and the live
        metrics endpoint (``mantle-serve --metrics-port``) serves.
        """
        payload: Dict[str, Any] = {"window_us": self.window_us,
                                   "rows": self.export_rows(now)}
        digests = [inst.to_jsonable() for inst in self.instruments()
                   if inst.kind == "digest"]
        if digests:
            payload["digests"] = digests
        if extra:
            payload.update(extra)
        return payload

    def write_json(self, path: str, now: Optional[float] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Write ``{"window_us", "rows", **extra}`` as JSON."""
        payload = self.export_payload(now, extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        return payload


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: One exported row: every :data:`EXPORT_COLUMNS` column present, a known
#: instrument kind, numeric measurements, a window that starts at or after 0.
ROWS_SHAPE = [{"metric": "any", "kind": ("enum", tuple(_KINDS)),
               "host": "any", "window_start_us": "num>=0", "value": "num",
               "count": "num", "max": "num", "capacity": "num"}]


def validate_rows(rows: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema check for exported rows; returns a list of problems."""
    return check_shape(list(rows), ROWS_SHAPE, name="rows")


_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], lo: float = 0.0,
              hi: Optional[float] = None, width: int = 60) -> str:
    """Render a timeline as terminal block characters.

    Values are averaged into ``width`` columns and mapped onto eight
    block heights between ``lo`` and ``hi`` (default: the observed max).
    """
    if not values:
        return ""
    if len(values) > width:
        # Average runs of consecutive values into one column each.
        per = len(values) / width
        cols = []
        for i in range(width):
            chunk = values[int(i * per):max(int((i + 1) * per),
                                            int(i * per) + 1)]
            cols.append(sum(chunk) / len(chunk))
    else:
        cols = list(values)
    top = hi if hi is not None else max(cols)
    span = top - lo
    if span <= 0:
        return _SPARK_BLOCKS[1] * len(cols)
    out = []
    for v in cols:
        frac = (v - lo) / span
        idx = int(frac * 8)
        out.append(_SPARK_BLOCKS[min(max(idx, 0) + 1, 8)])
    return "".join(out)


class _NullInstrument:
    """Shared no-op instrument returned by the disabled registry."""

    __slots__ = ()

    def add(self, now: float, amount: float = 1.0) -> None:
        pass

    def add_interval(self, start: float, end: float,
                     amount: Optional[float] = None) -> None:
        pass

    def set(self, now: float, value: float) -> None:
        pass

    def adjust(self, now: float, delta: float) -> None:
        pass

    def record(self, now: float, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """Disabled registry: ``enabled`` is False and every accessor returns
    the shared no-op instrument.  Instrumentation sites guard on
    ``enabled``, so this exists only as a safe default."""

    __slots__ = ()

    enabled = False
    window_us = DEFAULT_WINDOW_US

    def counter(self, name, host=None, capacity=0.0):
        return NULL_INSTRUMENT

    def gauge(self, name, host=None, capacity=0.0):
        return NULL_INSTRUMENT

    def histogram(self, name, host=None, capacity=0.0):
        return NULL_INSTRUMENT

    def digest(self, name, host=None, capacity=0.0):
        return NULL_INSTRUMENT

    def instruments(self):
        return []

    def find(self, name, host=None):
        return None

    def hosts(self, name):
        return []

    def finalize(self, now: float) -> None:
        pass

    def export_rows(self, now=None):
        return []

    def export_payload(self, now=None, extra=None):
        payload = {"window_us": self.window_us, "rows": []}
        if extra:
            payload.update(extra)
        return payload


NULL_TELEMETRY = NullTelemetry()
