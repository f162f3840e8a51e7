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
* :class:`Digest` — a per-window mergeable quantile sketch (log-spaced
  buckets, DDSketch layout) of point samples, used for per-op-type
  completion latencies: p50/p99/p999 are recoverable per window, over
  any window range, or across processes after :meth:`Digest.merge`,
  with relative error bounded by :data:`DIGEST_ALPHA`.

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

import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import check_shape

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

    def sum_over(self, lo: Optional[float] = None,
                 hi: Optional[float] = None) -> float:
        """Total over windows intersecting ``[lo, hi)`` (whole run if None)."""
        if lo is None and hi is None:
            return self.total
        w = self.window_us
        total = 0.0
        for idx, val in self.windows.items():
            start = idx * w
            if (lo is None or start + w > lo) and (hi is None or start < hi):
                total += val
        return total

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
                 "value", "peak", "_last_us")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> [value*dt integral, observed dt, max value].
        self.windows: Dict[int, List[float]] = {}
        self.value = 0.0
        self.peak = 0.0
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
        if level > self.peak:
            self.peak = level

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

    __slots__ = ("name", "host", "capacity", "window_us", "windows",
                 "total_count", "total_sum", "max_value")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> [count, sum, max].
        self.windows: Dict[int, List[float]] = {}
        self.total_count = 0
        self.total_sum = 0.0
        self.max_value = 0.0

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
        self.total_count += 1
        self.total_sum += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total_sum / self.total_count if self.total_count else 0.0

    def series(self) -> List[Tuple[float, float, int]]:
        """``[(window_start_us, per-window mean, count)]``."""
        w = self.window_us
        out = []
        for idx in sorted(self.windows):
            count, total, _mx = self.windows[idx]
            out.append((idx * w, total / count if count else 0.0, int(count)))
        return out

    def stats_over(self, lo: Optional[float] = None,
                   hi: Optional[float] = None) -> Tuple[int, float, float]:
        """``(count, sum, max)`` over windows intersecting ``[lo, hi)``."""
        w = self.window_us
        count, total, mx = 0, 0.0, 0.0
        for idx, (c, s, m) in self.windows.items():
            start = idx * w
            if (lo is None or start + w > lo) and (hi is None or start < hi):
                count += int(c)
                total += s
                if m > mx:
                    mx = m
        return count, total, mx


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


def _bucket_quantile(buckets: Dict[int, int], q: float) -> float:
    """Quantile over one bucket->count map (integer-rank walk)."""
    n = sum(buckets.values())
    if n == 0:
        return 0.0
    rank = max(0, int(math.ceil(q * n)) - 1)
    cum = 0
    for idx in sorted(buckets):
        cum += buckets[idx]
        if cum > rank:
            return digest_bucket_value(idx)
    return digest_bucket_value(max(buckets))


class Digest:
    """Per-window mergeable quantile sketch of point samples.

    Samples land in log-spaced buckets (:func:`digest_bucket`), so any
    quantile is recoverable per window — or over any union of windows,
    or across digests merged from other processes — with relative error
    at most :data:`DIGEST_ALPHA`.  Merging is bucket-count addition:
    associative, commutative, and exactly order-independent, which is
    what makes p50/p99/p999 timelines export byte-identically however
    the windows were accumulated.
    """

    kind = "digest"

    __slots__ = ("name", "host", "capacity", "window_us", "windows",
                 "total_count", "total_sum", "max_value")

    def __init__(self, name: str, host: Optional[str], window_us: float,
                 capacity: float = 0.0):
        self.name = name
        self.host = host
        self.capacity = capacity
        self.window_us = window_us
        #: window index -> [bucket->count map, count, sum, max].
        self.windows: Dict[int, List[Any]] = {}
        self.total_count = 0
        self.total_sum = 0.0
        self.max_value = 0.0

    def record(self, now: float, value: float) -> None:
        idx = int(now // self.window_us)
        cell = self.windows.get(idx)
        if cell is None:
            cell = self.windows[idx] = [{}, 0, 0.0, 0.0]
        buckets = cell[0]
        b = digest_bucket(value)
        buckets[b] = buckets.get(b, 0) + 1
        cell[1] += 1
        cell[2] += value
        if value > cell[3]:
            cell[3] = value
        self.total_count += 1
        self.total_sum += value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Digest") -> None:
        """Fold another digest's windows into this one (bucket addition)."""
        for idx, (buckets, count, total, mx) in other.windows.items():
            cell = self.windows.get(idx)
            if cell is None:
                cell = self.windows[idx] = [{}, 0, 0.0, 0.0]
            mine = cell[0]
            for b, c in buckets.items():
                mine[b] = mine.get(b, 0) + c
            cell[1] += count
            cell[2] += total
            if mx > cell[3]:
                cell[3] = mx
        self.total_count += other.total_count
        self.total_sum += other.total_sum
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def quantile(self, q: float, lo: Optional[float] = None,
                 hi: Optional[float] = None) -> float:
        """Quantile over windows intersecting ``[lo, hi)`` (whole run if
        None), within :data:`DIGEST_ALPHA` of the true sample quantile."""
        if lo is None and hi is None and len(self.windows) == 1:
            # One window needs no merged copy (a TailKeeper asks per op).
            (cell,) = self.windows.values()
            return _bucket_quantile(cell[0], q)
        w = self.window_us
        merged: Dict[int, int] = {}
        for idx, (buckets, _c, _s, _m) in self.windows.items():
            start = idx * w
            if (lo is None or start + w > lo) and (hi is None or start < hi):
                for b, c in buckets.items():
                    merged[b] = merged.get(b, 0) + c
        return _bucket_quantile(merged, q)

    def count_over(self, lo: Optional[float] = None,
                   hi: Optional[float] = None) -> int:
        """Sample count over windows intersecting ``[lo, hi)``."""
        if lo is None and hi is None:
            return self.total_count
        w = self.window_us
        count = 0
        for idx, (_b, c, _s, _m) in self.windows.items():
            start = idx * w
            if (lo is None or start + w > lo) and (hi is None or start < hi):
                count += c
        return count

    def series(self, q: float = 0.99) -> List[Tuple[float, float, int]]:
        """``[(window_start_us, per-window quantile, count)]``."""
        w = self.window_us
        return [(idx * w, _bucket_quantile(self.windows[idx][0], q),
                 int(self.windows[idx][1]))
                for idx in sorted(self.windows)]

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
                 "count": int(cell[1]), "sum": cell[2], "max": cell[3],
                 "buckets": [[b, cell[0][b]] for b in sorted(cell[0])]}
                for idx, cell in sorted(self.windows.items())],
        }


def digest_from_jsonable(data: Dict[str, Any]) -> Digest:
    """Rebuild a :class:`Digest` from :meth:`Digest.to_jsonable` output."""
    digest = Digest(data["metric"], data.get("host") or None,
                    float(data["window_us"]))
    for window in data.get("windows", ()):
        idx = int(float(window["window_start_us"]) // digest.window_us)
        buckets = {int(b): int(c) for b, c in window.get("buckets", ())}
        count = int(window.get("count", 0))
        total = float(window.get("sum", 0.0))
        mx = float(window.get("max", 0.0))
        digest.windows[idx] = [buckets, count, total, mx]
        digest.total_count += count
        digest.total_sum += total
        if mx > digest.max_value:
            digest.max_value = mx
    return digest


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

        ``value`` is the window sum (counter), time-weighted mean (gauge)
        or sample mean (histogram); ``count`` is the observed microseconds
        (gauge) or sample count (histogram); ``capacity`` is the
        normalisation constant (cores for CPU busy counters) or 0.
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
                triples = [(idx * w, _bucket_quantile(c[0], 0.99),
                            float(c[1]), c[3])
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
