"""Hierarchical span tracing for the simulated cluster.

Every instrumented layer (RPC fabric, Raft, TafDB, IndexNode, the operation
orchestrators) opens :class:`Span` records against the simulator's tracer.
Spans carry parent/child links, the host doing the work, and free-form
attributes, so a single operation unrolls into a tree::

    mkdir                                   (category "op")
    |-- lookup                              (category "phase")
    |   `-- rpc:lookup -> rpc_lookup        (categories "rpc"/"handler")
    |-- execution                           (category "phase")
    |   `-- tafdb.txn                       (category "txn")
    `-- rpc:mutate ...

Design constraints, in order of importance:

* **Determinism** — the tracer performs pure Python bookkeeping and never
  creates simulator events or advances time, so enabling tracing cannot
  change any simulated result (``tests/experiments/test_fastpath_determinism``
  pins this down).
* **Zero cost when off** — the default tracer is the :data:`NULL_TRACER`
  no-op singleton; instrumentation sites guard on ``tracer.enabled`` so a
  disabled run pays one attribute load and a boolean test per site.
* **Bounded memory when on** — finished spans land in a fixed-size ring
  (oldest spans fall out), stored as rows of packed columns rather than
  as objects; reads rebuild :class:`Span` objects.
* **Tail retention** — the ring keeps the most recent spans, so the p999
  stragglers that define SLOs fall out as readily as any other.  A
  :class:`TailKeeper` attached to the tracer
  additionally retains the full span tree of any root op that errored or
  whose duration clears a per-op-type adaptive threshold (a quantile of
  the op's own duration digest), under a bounded span budget with whole-
  tree eviction — so slow-op exemplars survive ring pressure.  Kept trees
  are rows in the ring's format.  The keep decision depends only on
  simulated durations, so it is deterministic.

Enable tracing with ``MANTLE_TRACE=1`` (every :class:`~repro.sim.core.Simulator`
constructed in the process gets a live tracer), or for one deployment of any
system by binding and assigning one: ``tracer = Tracer(); tracer.bind(sim);
sim.tracer = tracer``.

The tracer folds each ``op`` span with its declared ``phase``/``rpc``
children into :class:`OpAggregate` as the op ends — the paper's per-phase
tables, which need no ring (phases are recorded nowhere else).  The module
also ships :class:`SpanIndex` — the one place span-tree edges are built,
which every other fold reads — a Chrome-trace (``chrome://tracing`` /
Perfetto JSON) exporter and its validator.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress, islice, repeat
from operator import sub
from types import MappingProxyType
from typing import (Any, Callable, Deque, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.sim.telemetry import Sketch
from repro.tools.shape import check_shape, shape_items

#: Span categories used by the built-in instrumentation.
CAT_OP = "op"              #: one client-visible metadata operation (root)
CAT_PHASE = "phase"        #: lookup / loop_detect / execution sub-phase
CAT_RPC = "rpc"            #: one request/response round trip
CAT_HANDLER = "handler"    #: server-side rpc_<method> handler body
CAT_TXN = "txn"            #: one TafDB transaction (1PC or 2PC)
CAT_RAFT = "raft"          #: Raft persist / replication / apply work
CAT_INDEX = "index"        #: IndexNode-local resolution work
CAT_MAINT = "maintenance"  #: background loops (compactor, invalidator)


class Span:
    """One timed interval in the simulation, linked into a tree.

    ``start_us`` / ``end_us`` are simulated microseconds.  ``parent_id`` is 0
    for root spans.  ``ok`` is False when the spanned work raised.

    ``parent_id`` is the *declared* parent (what the instrumentation site
    passed, e.g. an RPC span declares the operation root).  ``dyn_parent_id``
    is the *dynamic* parent: the span that was innermost on the opening
    process's stack at begin time.  Which fold follows which link is
    :class:`SpanIndex`'s edge rule.

    The cost maps are keyed by tuples the :class:`Tracer` interns (one
    object per distinct key, not one per charge).  Most spans are charged
    one cost kind on one host, so the first cost entry lives in two slots
    and a dict is built only when a second distinct key arrives;
    :attr:`costs` reads either form as one read-only mapping.

    A span is written once: :meth:`Tracer.end` closes it, and a second
    ``end``, an :meth:`annotate` or a cost charge after that raises
    (the tracer's ring keeps the span's fields, not the object).
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "host",
                 "start_us", "end_us", "attrs", "ok", "dyn_parent_id",
                 "root_id", "_costs", "_cost_us", "queue_res", "blocked",
                 "queue_by")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 category: str, host: Optional[str], start_us: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.host = host
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None
        self.ok = True
        self.dyn_parent_id = 0
        #: span_id of this span's tail-keep tree root (kept up to date only
        #: while the tracer has a keeper; a span starts as its own root).
        self.root_id = span_id
        #: ``None``, the one (cost-kind, host) key charged so far (its
        #: microseconds in ``_cost_us``), or a dict once there are two.
        self._costs: Any = None
        self._cost_us = 0.0
        #: (resource, host) -> queue microseconds, refining the ``queue``
        #: entries in :attr:`costs` by what was waited on (cpu/disk/latch).
        #: A strict decomposition: summed per host it never exceeds the
        #: host's ``queue`` cost.  ``None`` until the first tagged charge.
        self.queue_res: Optional[Dict[Tuple[str, Optional[str]],
                                      float]] = None
        #: (cause-frame, cost-kind, host) -> microseconds this span spent
        #: *blocked on another process's* work (e.g. a Raft commit wait
        #: decomposed into batch-window queue / leader fsync / replication
        #: wire).  Unlike :attr:`costs` these are a refinement of the
        #: span's idle residual, not additional cost — the profiler
        #: ignores them; the critical-path analyzer consumes them.
        self.blocked: Optional[Dict[Tuple[str, str, Optional[str]],
                                    float]] = None
        #: (culprit-op, culprit-tenant, resource, host) -> queue
        #: microseconds, refining :attr:`queue_res` by the *occupant* whose
        #: departure admitted this span's process to the resource — the
        #: who-delayed-whom tags the blame matrix folds.  Summed per
        #: (resource, host) it equals the matching :attr:`queue_res` entry
        #: exactly (unknown occupants land under ``"(unknown)"``).
        #: ``None`` until the first occupant-tagged charge.
        self.queue_by: Optional[Dict[Tuple[str, Optional[str], str,
                                           Optional[str]], float]] = None

    @property
    def costs(self) -> Optional[Mapping[Tuple[str, Optional[str]], float]]:
        """(cost-kind, host) -> simulated microseconds charged while this
        span was innermost, in first-charge order; ``None`` until the
        first charge.  Read-only."""
        held = self._costs
        if held is None:
            return None
        if type(held) is dict:
            return MappingProxyType(held)
        return MappingProxyType({held: self._cost_us})

    def add_cost(self, key: Tuple[str, Optional[str]], us: float) -> None:
        """Accumulate ``us`` of cost under ``key`` = (kind, host), kind
        one of cpu/fsync/wire/queue."""
        if self.end_us is not None:
            raise _written(self)
        held = self._costs
        if held is None:
            self._costs = key
            self._cost_us = 0.0 + us
        elif type(held) is dict:
            held[key] = held.get(key, 0.0) + us
        elif held == key:
            self._cost_us += us
        else:
            self._costs = {held: self._cost_us, key: 0.0 + us}

    def add_queue_resource(self, key: Tuple[str, Optional[str]],
                           us: float) -> None:
        """Refine a ``queue`` charge by ``key`` = (resource waited on,
        host)."""
        if self.end_us is not None:
            raise _written(self)
        res = self.queue_res
        if res is None:
            res = self.queue_res = {}
        res[key] = res.get(key, 0.0) + us

    def add_blocked(self, key: Tuple[str, str, Optional[str]],
                    us: float) -> None:
        """Accumulate blocked-on time under ``key`` = (cause, kind, host)."""
        if self.end_us is not None:
            raise _written(self)
        blocked = self.blocked
        if blocked is None:
            blocked = self.blocked = {}
        blocked[key] = blocked.get(key, 0.0) + us

    def add_queue_by(self, key: Tuple[str, Optional[str], str,
                                      Optional[str]], us: float) -> None:
        """Tag queue time with ``key`` = (op, tenant, resource, host): the
        occupant that preceded it on that resource."""
        if self.end_us is not None:
            raise _written(self)
        by = self.queue_by
        if by is None:
            by = self.queue_by = {}
        by[key] = by.get(key, 0.0) + us

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def annotate(self, **attrs) -> None:
        """Attach free-form attributes (cache outcome, batch size, ...)."""
        if self.end_us is not None:
            raise _written(self)
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.category}/{self.name!r} "
                f"parent={self.parent_id} host={self.host!r} "
                f"[{self.start_us}, {self.end_us}] ok={self.ok})")


def _written(span: Span) -> RuntimeError:
    return RuntimeError(f"span #{span.span_id} {span.name!r} has ended; "
                        f"a span is written once")


class _NullSpan:
    """The span the disabled tracer hands out.  Accepts annotations
    silently."""

    __slots__ = ()
    span_id = 0
    parent_id = 0
    category = ""
    name = ""
    host = None
    start_us = 0.0
    end_us = 0.0
    ok = True
    duration_us = 0.0
    dyn_parent_id = 0
    costs = None
    queue_res = None
    blocked = None
    queue_by = None

    def annotate(self, **attrs) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        return False


#: Shared disabled-span singleton; falsy so ``if span:`` skips dead work.
NULL_SPAN = _NullSpan()


class RemoteSpanRef:
    """A parent span living in *another process* (live runtime only).

    The wire protocol carries ``{"proc", "span"}`` trace context on each
    request frame; the receiving server rebuilds it as a ``RemoteSpanRef``
    and passes it where sim code passes the caller's :class:`Span`.  A span
    begun with a remote parent becomes a *local* root (``parent_id`` 0 —
    ids are only unique per process) annotated with
    ``remote_parent_proc``/``remote_parent_span``, which is what the
    cross-process trace merge (:mod:`repro.runtime.obs`) stitches back into
    one tree.
    """

    __slots__ = ("proc", "span_id")

    def __init__(self, proc: str, span_id: int):
        self.proc = proc
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteSpanRef({self.proc!r}, #{self.span_id})"


class NullTracer:
    """The disabled tracer: every call is a no-op.

    Instrumentation sites check :attr:`enabled` before building span
    arguments, so a disabled run's cost per site is one attribute load and a
    boolean test — the "zero-cost-when-off" contract; the wall-clock
    ledger's untraced pass (``benchmarks/ledger``) is where it is measured.
    """

    __slots__ = ()
    enabled = False
    keeper = None
    started = finished = 0

    @property
    def spans(self) -> Sequence[Span]:
        return ()

    @property
    def dropped(self) -> int:
        return 0

    def retained_spans(self, ring: Optional[List[Span]] = None):
        return []

    def begin(self, name: str, now: float, category: str = "",
              parent: Any = None, host: Optional[str] = None):
        return NULL_SPAN

    def current_span(self):
        return None

    def end(self, span, now: float, ok: bool = True) -> None:
        pass

    def bind(self, sim) -> None:
        pass

    def charge(self, kind: str, us: float, host: Optional[str] = None,
               resource: Optional[str] = None,
               by: Optional[Tuple[str, Optional[str]]] = None) -> None:
        pass

    def charge_blocked(self, cause: str, kind: str, us: float,
                       host: Optional[str] = None,
                       resource: Optional[str] = None,
                       by: Optional[Tuple[str, Optional[str]]] = None
                       ) -> None:
        pass

    def current_op_label(self) -> Optional[Tuple[str, Optional[str]]]:
        return None

    @property
    def unattributed(self) -> Dict[Tuple[Optional[str], str], float]:
        return {}

    def reset(self) -> None:
        pass


#: Process-wide no-op tracer shared by every untraced simulator.
NULL_TRACER = NullTracer()

#: Default ring capacity: ~10 MB of rows at ~37 B each (attributes and
#: the sparse cost maps aside), far above what the quick-scale workloads
#: produce, small enough to bound long soak runs.
DEFAULT_MAX_SPANS = 262_144

#: Default tail-keeper budget: whole trees are evicted (oldest first) once
#: the retained spans exceed this.
DEFAULT_KEEP_BUDGET_SPANS = 65_536

#: Adaptive keep threshold: retain roots above this duration quantile of
#: their own op type (p99 — one kept exemplar per ~100 ops at steady state).
DEFAULT_KEEP_QUANTILE = 0.99

#: Adaptive thresholds need this many samples of an op type before they
#: engage; below it every root of that type is kept (budget-bounded).
DEFAULT_KEEP_MIN_SAMPLES = 64


class TailKeeper:
    """Keep policy retaining whole span trees for tail/error exemplars.

    Attach via ``Tracer(keeper=TailKeeper(...))``.  For every finished
    root the keeper decides: keep the tree if the root errored, or if its
    duration reaches the op type's threshold — ``threshold_us`` when
    fixed, else the :data:`DEFAULT_KEEP_QUANTILE` of the op's own
    durations in one run-long :class:`~repro.sim.telemetry.Sketch`, so
    the threshold inherits the latency digests' error bound.
    Until an op type has ``min_samples`` observations its roots are all
    kept — early stragglers are exactly the ones worth keeping, and the
    span ``budget`` bounds memory either way: once exceeded, the oldest
    kept trees are evicted whole (``evicted_roots`` counts them).

    Decisions read only simulated durations and integer counts, never the
    wall clock or an RNG — identical traffic keeps identical trees on
    every kernel.

    Kept trees are stored as rows in the trace ring's format (a
    :class:`_SpanStore`, one tree after another, oldest first): a kept
    tree's spans wait as objects until :data:`_BATCH` of them have been
    kept, then move into the store's columns.  :meth:`trees` and
    :meth:`spans` rebuild equal :class:`Span` objects on every read.
    """

    __slots__ = ("quantile", "threshold_us", "min_samples", "budget",
                 "kept_roots", "kept_errors", "evicted_roots", "_rows",
                 "_waiting", "_sizes", "_span_count", "_durations")

    def __init__(self, quantile: float = DEFAULT_KEEP_QUANTILE,
                 threshold_us: Optional[float] = None,
                 min_samples: int = DEFAULT_KEEP_MIN_SAMPLES,
                 budget: int = DEFAULT_KEEP_BUDGET_SPANS):
        if not 0.0 < quantile < 1.0:
            raise ValueError("keep quantile must be in (0, 1)")
        if budget < 1:
            raise ValueError("keep budget must be >= 1")
        self.quantile = quantile
        self.threshold_us = threshold_us
        self.min_samples = min_samples
        self.budget = budget
        #: roots kept so far (monotonic; eviction does not decrement).
        self.kept_roots = 0
        #: roots kept because they errored.
        self.kept_errors = 0
        #: kept trees evicted whole to stay under budget.
        self.evicted_roots = 0
        #: Kept trees' rows, oldest first; eviction drops them from the
        #: front.  A tree moves in whole, so the oldest trees are rows and
        #: the newest may still be waiting.
        self._rows = _SpanStore()
        #: Spans of the newest kept trees not yet moved into rows.
        self._waiting: List[Span] = []
        #: Spans per kept tree, oldest first (root finish order).
        self._sizes: Deque[int] = deque()
        self._span_count = 0
        #: op name -> root durations feeding the adaptive thresholds.
        self._durations: Dict[str, Sketch] = {}

    def op_threshold_us(self, op: str) -> Optional[float]:
        """Current keep threshold for an op type; ``None`` = keep all
        (threshold still warming up)."""
        if self.threshold_us is not None:
            return self.threshold_us
        durations = self._durations.get(op)
        if durations is None or durations.total < self.min_samples:
            return None
        return durations.quantile(self.quantile)

    def offer(self, root: Span, tree: List[Span]) -> bool:
        """Decide on one finished root's tree; returns True when kept."""
        threshold = self.op_threshold_us(root.name)
        keep = (not root.ok) or threshold is None \
            or root.duration_us >= threshold
        if self.threshold_us is None:
            durations = self._durations.get(root.name)
            if durations is None:
                durations = self._durations[root.name] = Sketch()
            durations.record(root.duration_us)
        if not keep:
            return False
        self.kept_roots += 1
        if not root.ok:
            self.kept_errors += 1
        waiting = self._waiting
        waiting += tree
        sizes = self._sizes
        sizes.append(len(tree))
        self._span_count += len(tree)
        while self._span_count > self.budget and len(sizes) > 1:
            size = sizes.popleft()
            self._span_count -= size
            self.evicted_roots += 1
            if self._rows.held:
                self._rows.drop(size)
            else:
                del waiting[:size]
        if len(waiting) >= _BATCH:
            self._store()
        return True

    def _store(self) -> None:
        """Move the waiting kept spans into rows."""
        self._rows.extend(self._waiting)
        self._waiting = []

    @property
    def kept_spans(self) -> int:
        """Spans currently retained across all kept trees."""
        return self._span_count

    def trees(self) -> List[List[Span]]:
        """Kept trees, oldest root first, each in tree order (root
        last): new :class:`Span` objects on every read."""
        spans = self.spans()
        out: List[List[Span]] = []
        at = 0
        for size in self._sizes:
            out.append(spans[at:at + size])
            at += size
        return out

    def spans(self) -> List[Span]:
        """Every retained span, flattened (tree order, root last): new
        :class:`Span` objects on every read."""
        self._store()
        return self._rows.read()

    def reset(self) -> None:
        self.kept_roots = 0
        self.kept_errors = 0
        self.evicted_roots = 0
        self._rows.clear()
        self._waiting = []
        self._sizes.clear()
        self._span_count = 0
        self._durations.clear()


class OpAggregate:
    """Per-operation rollup of ``op`` spans and the ``phase``/``rpc`` spans
    that declared them as parent — the paper's per-phase tables.

    Mirrors :class:`~repro.sim.stats.MetricSet` semantics exactly: failed
    operations contribute to ``failures`` only, and ``rpcs`` counts one per
    ``rpc``-category child — which is also how ``OpContext.rpcs`` counts.
    Phase means average over the successful roots that recorded the phase,
    an op's re-entries summed; a phase no root recorded reads 0.
    """

    __slots__ = ("op", "count", "failures", "total_latency_us",
                 "rpcs_total", "phases")

    def __init__(self, op: str):
        self.op = op
        self.count = 0
        self.failures = 0
        self.total_latency_us = 0.0
        self.rpcs_total = 0
        #: phase -> (roots that recorded it, summed duration).
        self.phases: Dict[str, Tuple[int, float]] = {}

    @property
    def mean_latency_us(self) -> float:
        return self.total_latency_us / self.count if self.count else 0.0

    @property
    def mean_rpcs(self) -> float:
        return self.rpcs_total / self.count if self.count else 0.0

    def mean_phase_us(self, phase: str) -> float:
        entry = self.phases.get(phase)
        if not entry or not entry[0]:
            return 0.0
        return entry[1] / entry[0]

    def add(self, root: Span, children: Iterable[Span]) -> None:
        """Fold one finished root and its ``phase``/``rpc`` children."""
        if not root.ok:
            self.failures += 1
            return
        self.count += 1
        self.total_latency_us += root.duration_us
        per_phase: Dict[str, float] = {}
        for child in children:
            if child.category == CAT_PHASE:
                per_phase[child.name] = (
                    per_phase.get(child.name, 0.0) + child.duration_us)
            else:
                self.rpcs_total += 1
        for phase, total in per_phase.items():
            seen, acc = self.phases.get(phase, (0, 0.0))
            self.phases[phase] = (seen + 1, acc + total)


#: Finished spans wait as objects until this many have ended, then move
#: into a store's columns in one pass (one array build per field is
#: cheaper than a write per field per span).  Kept well under the
#: collector's generation-0 threshold (700 allocations), so the waiting
#: spans do not by themselves set off collections.
_BATCH = 256

#: Distinct attribute tuples a store interns before it starts over
#: (rows keep the tuples they share; only later sharing is lost), so a
#: long run's unique ``txn_id`` attributes do not pile up in the table.
_ATTRS_INTERNED = 8_192

#: The narrowest integer typecode by the bit length of the largest value
#: it must hold: unsigned for a column with no negative value, signed
#: (one bit more) otherwise.
_UNSIGNED = "B" * 9 + "H" * 8 + "I" * 16 + "Q" * 32
_SIGNED = "b" * 8 + "h" * 8 + "i" * 16 + "q" * 32

#: The :class:`Span` slots of the sparse maps, in the order a block
#: stores their entries.
_EXTRA_SLOTS = ("_costs", "queue_res", "blocked", "queue_by")


def _packed(values: Sequence[int], top: Optional[int] = None) -> array:
    """``values`` in the narrowest integer array that holds every one;
    ``top`` is their maximum when the caller knows it."""
    if not values:
        return array("B")
    if top is None:
        top = max(values)
    try:
        # Unsigned, unless a value is negative (the array build raises).
        return array(_UNSIGNED[top.bit_length()], values)
    except OverflowError:
        return array(_SIGNED[max(top, -1 - min(values)).bit_length()],
                     values)


class _Atoms(dict):
    """value -> small int, numbered in first-seen order; ``values[i]`` is
    the value numbered ``i``.  Holds the few distinct names, categories,
    hosts and cost keys a run's spans share."""

    __slots__ = ("values",)

    def __init__(self):
        super().__init__()
        self.values: List[Any] = []

    def __missing__(self, value: Any) -> int:
        index = self[value] = len(self.values)
        self.values.append(value)
        return index


class _Rows:
    """One batch of finished spans, stored field by field and never
    edited.

    Every span has a row in the dense columns: its id as an offset from
    the block's ``base``; its parent, dynamic-parent and root ids as
    links back from its own id (0 is "none" for a parent and "self" for
    a root; a parent at or after the span's own id, which only a span
    opened before a ``reset`` can be, links one further out, so no
    parent reads as "none"); the start, end and first-cost times
    (``d``); ``ok``; and the interned name, category, host and first
    cost key.  Each integer column takes the narrowest typecode that
    holds this block's values (:func:`_packed`).

    The rare fields are flat columns over the rows that have them (each
    ``None`` when no row does): ``attrs`` as a row and an index into the
    block's tuple of shared item tuples, and every other map entry as a
    row, an interned key and its microseconds.  Those entries run field
    by field (the costs after a row's first, then ``queue_res``,
    ``blocked``, ``queue_by``; ``extra_ends`` marks where each field's
    end), each map's in its own order."""

    __slots__ = ("base", "ids", "parents", "dyn_parents", "roots", "starts",
                 "ends", "first_us", "oks", "names", "cats", "hosts", "keys",
                 "attr_rows", "attr_index", "attr_items", "extra_rows",
                 "extra_keys", "extra_us", "extra_ends")

    def __init__(self, spans: List[Span], atoms: _Atoms,
                 interned: Dict[tuple, tuple]):
        # One comprehension per field: cheaper than a write per field per
        # span, and it allocates nothing the collector tracks.
        ids = [span.span_id for span in spans]
        base = self.base = min(ids)
        self.ids = _packed([span_id - base for span_id in ids],
                           max(ids) - base)
        self.parents = _packed([
            0 if not (link := span.parent_id) else span_id - link
            if link < span_id else span_id - link - 1
            for span_id, span in zip(ids, spans)])
        self.dyn_parents = _packed([
            0 if not (link := span.dyn_parent_id) else span_id - link
            if link < span_id else span_id - link - 1
            for span_id, span in zip(ids, spans)])
        self.roots = _packed(list(map(sub, ids, [span.root_id
                                                 for span in spans])))
        self.starts = array("d", [span.start_us for span in spans])
        self.ends = array("d", [span.end_us for span in spans])
        self.oks = array("b", [span.ok for span in spans])
        self.names = _packed([atoms[span.name] for span in spans])
        self.cats = _packed([atoms[span.category] for span in spans])
        self.hosts = _packed([atoms[span.host] for span in spans])
        rows = range(len(spans))
        costs = [span._costs for span in spans]
        first_us = [span._cost_us for span in spans]
        # The sparse entries, field by field (each map's in its order).
        extra_rows: List[int] = []
        extra_keys: List[int] = []
        extra_us: List[float] = []
        extra_ends: List[int] = []
        intern = atoms.__getitem__
        for row in compress(rows, map(isinstance, costs, repeat(dict))):
            # The first entry fills the dense columns, the rest go sparse.
            held = costs[row]
            costs[row], first_us[row] = next(iter(held.items()))
            extra_rows += repeat(row, len(held) - 1)
            extra_keys += map(intern, islice(held, 1, None))
            extra_us += islice(held.values(), 1, None)
        extra_ends.append(len(extra_rows))
        self.keys = _packed([atoms[key] for key in costs])
        self.first_us = array("d", first_us)
        for maps in ([span.queue_res for span in spans],
                     [span.blocked for span in spans],
                     [span.queue_by for span in spans]):
            for row in compress(rows, maps):
                held = maps[row]
                extra_rows += repeat(row, len(held))
                extra_keys += map(intern, held)
                extra_us += held.values()
            extra_ends.append(len(extra_rows))
        if extra_rows:
            self.extra_rows = _packed(extra_rows)
            self.extra_keys = _packed(extra_keys)
            self.extra_us = array("d", extra_us)
            self.extra_ends = tuple(extra_ends)
        else:
            self.extra_rows = self.extra_keys = self.extra_us = None
            self.extra_ends = None
        self._pack_attrs(rows, [span.attrs for span in spans], interned)

    def _pack_attrs(self, rows: range, attrs: List[Any],
                    interned: Dict[tuple, tuple]) -> None:
        with_attrs = list(compress(rows, attrs))
        if not with_attrs:
            self.attr_rows = self.attr_index = self.attr_items = None
            return
        shared = [_share_items(attrs[row], interned) for row in with_attrs]
        # The block's distinct item tuples, in first-seen order, told
        # apart by identity: equal attribute sets share one interned tuple.
        table: Dict[int, int] = {}
        index = [table.setdefault(id(items), len(table)) for items in shared]
        self.attr_rows = _packed(with_attrs, with_attrs[-1])
        self.attr_index = _packed(index, len(table) - 1)
        self.attr_items = tuple({id(items): items
                                 for items in shared}.values())

    def __len__(self) -> int:
        return len(self.ids)

    def rebuild(self, out: List[Span], skip: int, atoms: List[Any]
                ) -> None:
        """Append a fresh :class:`Span` per row from ``skip`` on; every
        map it gets is its own copy."""
        new = Span.__new__
        first = len(out) - skip
        base = self.base
        columns = zip(self.ids, self.parents, self.dyn_parents, self.roots,
                      self.starts, self.ends, self.first_us, self.oks,
                      self.names, self.cats, self.hosts, self.keys)
        for (offset, parent, dyn_parent, root, start_us, end_us, first_us,
             ok, name, cat, host, key) in islice(columns, skip, None):
            span = new(Span)
            span.span_id = span_id = base + offset
            span.parent_id = parent_id = 0 if not parent else \
                span_id - parent if parent > 0 else span_id - parent - 1
            span.name = atoms[name]
            span.category = atoms[cat]
            span.host = atoms[host]
            span.start_us = start_us
            span.end_us = end_us
            span.ok = ok == 1
            # Where ids are equal, as they mostly are, the span holds one
            # int object, as the span it was rebuilt from did.
            span.dyn_parent_id = dyn_parent_id = parent_id \
                if dyn_parent == parent else 0 if not dyn_parent else \
                span_id - dyn_parent if dyn_parent > 0 \
                else span_id - dyn_parent - 1
            root_id = span_id - root
            span.root_id = span_id if not root else dyn_parent_id \
                if root_id == dyn_parent_id else root_id
            span._costs = atoms[key]
            span._cost_us = first_us if first_us else 0.0
            span.attrs = span.queue_res = span.blocked = span.queue_by = None
            out.append(span)
        if self.attr_rows is not None:
            items_of = self.attr_items
            for row, at in zip(self.attr_rows, self.attr_index):
                if row >= skip:
                    out[first + row].attrs = dict(items_of[at])
        if self.extra_rows is not None:
            entries = zip(self.extra_rows, self.extra_keys, self.extra_us)
            ends = self.extra_ends
            for slot, start, end in zip(_EXTRA_SLOTS, (0,) + ends, ends):
                for row, key, us in islice(entries, end - start):
                    if row >= skip:
                        span = out[first + row]
                        held = getattr(span, slot)
                        if type(held) is not dict:
                            # A cost map starts from the row's first key.
                            held = {} if held is None else \
                                {held: span._cost_us}
                            setattr(span, slot, held)
                        held[atoms[key]] = us


def _share_items(attrs: Dict[str, Any], interned: Dict[tuple, tuple]
                 ) -> tuple:
    """``attrs`` as an item tuple, the one already stored when an equal
    one was (values compare by type too: ``True`` is not ``1``)."""
    items = tuple(attrs.items())
    key = (items, tuple(map(type, attrs.values())))
    try:
        shared = interned.get(key)
    except TypeError:  # an unhashable value: this row keeps its own
        return items
    if shared is None:
        if len(interned) >= _ATTRS_INTERNED:
            interned.clear()
        shared = interned[key] = items
    return shared


class _SpanStore:
    """Finished spans as blocks of rows, oldest first: the store behind
    both the trace ring and the tail keeper, which differ only in what
    they let fall out.  The first ``_skip`` rows of the first block have
    been dropped; ``held`` rows remain."""

    __slots__ = ("_blocks", "_skip", "held", "_atoms", "_attr_items")

    def __init__(self):
        self._blocks: List[_Rows] = []
        self._skip = 0
        self.held = 0
        self._atoms = _Atoms()
        #: (attr items, value types) -> the one stored item tuple.
        self._attr_items: Dict[tuple, tuple] = {}

    def extend(self, spans: List[Span]) -> None:
        """Store finished spans, oldest first, as a new block of rows."""
        if spans:
            self._blocks.append(_Rows(spans, self._atoms, self._attr_items))
            self.held += len(spans)

    def drop(self, count: int) -> None:
        """Let the oldest ``count`` rows fall out."""
        blocks = self._blocks
        self.held -= count
        while count:
            room = len(blocks[0]) - self._skip
            if room <= count:
                del blocks[0]
                self._skip = 0
                count -= room
            else:
                self._skip += count
                count = 0

    def read(self) -> List[Span]:
        """A new list of new ``Span`` objects, one per row, oldest first."""
        out: List[Span] = []
        skip = self._skip
        atoms = self._atoms.values
        for rows in self._blocks:
            rows.rebuild(out, skip, atoms)
            skip = 0
        return out

    def clear(self) -> None:
        self._blocks.clear()
        self._skip = 0
        self.held = 0
        self._atoms = _Atoms()
        self._attr_items.clear()


class Tracer:
    """Collects finished spans into a bounded ring, and folds each ``op``
    span into :attr:`aggregates` as it ends.

    The ring (a :class:`_SpanStore`) stores each finished span as one row
    of packed columns, not as an object: ``end`` queues the span, and
    every :data:`_BATCH` spans the queue moves into the ring.  A kept
    tail tree is rows in the same format, in the keeper's own store.  A
    :class:`Span` object lives only while the span is open, while a
    pending phase fold or a still-open tail-keep tree holds it, and until
    the next batch moves it into rows; :attr:`spans` and
    :meth:`retained_spans` rebuild equal objects on every read.

    Parameters
    ----------
    max_spans:
        Ring capacity; once full, the oldest finished spans fall out and
        :attr:`dropped` counts them.
    keeper:
        Optional :class:`TailKeeper`; finished trees of slow or failed
        roots are retained beyond the ring under its budget.
    """

    __slots__ = ("max_spans", "_ring", "_batch", "_next_id", "started",
                 "finished", "_sim", "_stacks", "unattributed", "keeper",
                 "_keys", "_live_trees", "aggregates", "_pending")

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 keeper: Optional[TailKeeper] = None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._ring = _SpanStore()
        #: Finished spans not yet moved into the ring, oldest first.
        self._batch: List[Span] = []
        self._next_id = 0
        self.keeper = keeper
        #: Every cost-map key charged so far, mapped to itself: spans share
        #: one tuple per distinct key instead of holding one per charge.
        self._keys: Dict[tuple, tuple] = {}
        #: root span_id -> finished spans of its still-open tree.
        self._live_trees: Dict[int, List[Span]] = {}
        #: op name -> :class:`OpAggregate` of every op span that ended, so
        #: the phase tables need no ring.
        self.aggregates: Dict[str, OpAggregate] = {}
        #: span_id -> the finished ``phase``/``rpc`` spans that declared it
        #: as parent, folded (``op``) or dropped when it ends; a child that
        #: ends after its parent is not folded.
        self._pending: Dict[int, List[Span]] = {}
        self.started = 0
        self.finished = 0
        # Cost attribution.  ``_stacks`` maps the simulator's currently
        # executing process to its stack of open spans; ``charge`` lands on
        # the stack top.  An unbound tracer (no ``bind`` call) degrades to a
        # single shared stack — fine for single-process unit tests, wrong
        # for concurrent workloads, which is why every assignment site binds.
        self._sim = None
        self._stacks: Dict[Any, List[Any]] = {}
        #: (host, cost-kind) -> us charged while no span was open.  Keeps
        #: profiler-vs-telemetry reconciliation exact.
        self.unattributed: Dict[Tuple[Optional[str], str], float] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose active process keys the span stacks.

        Charges and dynamic-parent links are attributed per process; the
        kernel publishes ``sim._active_process`` on every resume, so binding
        is the only coupling the tracer needs.
        """
        self._sim = sim

    @property
    def spans(self) -> List[Span]:
        """Finished spans, oldest first: a new list of new :class:`Span`
        objects, rebuilt from the ring's rows on every read."""
        self._flush()
        return self._ring.read()

    @property
    def dropped(self) -> int:
        """Finished spans that fell out of the ring."""
        return max(0, self.finished - self.max_spans)

    def _flush(self) -> None:
        """Move the queued finished spans into the ring and let the
        oldest rows fall out past ``max_spans``."""
        batch = self._batch
        if batch:
            ring = self._ring
            limit = self.max_spans
            ring.extend(batch if len(batch) <= limit else batch[-limit:])
            self._batch = []
            if ring.held > limit:
                ring.drop(ring.held - limit)

    def begin(self, name: str, now: float, category: str = "",
              parent: Any = None, host: Optional[str] = None) -> Span:
        """Open a span.

        ``parent`` is another :class:`Span`, ``None`` for a root span, or a
        :class:`RemoteSpanRef` for a parent in another live process — the
        span becomes a local root carrying the remote link in its
        attributes.
        """
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        remote = None
        if isinstance(parent, RemoteSpanRef):
            remote, parent = parent, None
        self._next_id += 1
        self.started += 1
        span = Span(self._next_id, parent.span_id if parent is not None else 0,
                    name, category, host, now)
        if stack:
            span.dyn_parent_id = stack[-1].span_id
        if remote is not None:
            span.annotate(remote_parent_proc=remote.proc,
                          remote_parent_span=remote.span_id)
        if self.keeper is not None:
            # Tree membership follows the opening process's stack: its
            # bottom span is this process's tree root (the op root for
            # client work, the fan-out wrapper for spawned legs).
            if stack:
                span.root_id = stack[0].root_id
        if stack is None:
            self._stacks[proc] = [span]
        else:
            stack.append(span)
        return span

    def current_span(self):
        """The innermost open span of the currently executing process, or
        ``None``."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        return stack[-1] if stack else None

    def end(self, span, now: float, ok: bool = True) -> None:
        """Close a span and commit it to the ring; raises if it has
        ended before."""
        if span.end_us is not None:
            raise _written(span)
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # A child leaked open (exception unwound past its end call):
                # truncate through it so the stack mirrors reality again.
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is span:
                        del stack[i:]
                        break
            if not stack:
                del self._stacks[proc]
        span.end_us = now
        span.ok = ok
        self.finished += 1
        batch = self._batch
        batch.append(span)
        if len(batch) >= _BATCH:
            self._flush()
        pending = self._pending
        kids = pending.pop(span.span_id, ())
        category = span.category
        if category == CAT_OP:
            agg = self.aggregates.get(span.name)
            if agg is None:
                agg = self.aggregates[span.name] = OpAggregate(span.name)
            agg.add(span, kids)
        elif (category == CAT_PHASE or category == CAT_RPC) \
                and span.parent_id:
            siblings = pending.get(span.parent_id)
            if siblings is None:
                pending[span.parent_id] = [span]
            else:
                siblings.append(span)
        if self.keeper is not None:
            root_id = span.root_id
            tree = self._live_trees.get(root_id)
            if tree is None:
                tree = self._live_trees[root_id] = []
            tree.append(span)
            if span.span_id == root_id:
                del self._live_trees[root_id]
                if span.category == CAT_OP:
                    self.keeper.offer(span, tree)

    def charge(self, kind: str, us: float, host: Optional[str] = None,
               resource: Optional[str] = None,
               by: Optional[Tuple[str, Optional[str]]] = None) -> None:
        """Attribute ``us`` simulated microseconds of ``kind`` cost.

        The charge lands on the innermost open span of the currently
        executing process; with no span open it accrues to the
        tracer-level :attr:`unattributed` bucket so totals still reconcile
        against telemetry busy counters.

        ``resource`` optionally names what a ``queue`` charge waited on
        (``"cpu"`` / ``"disk"`` / ``"latch"``); the refinement is stored
        alongside — never instead of — the plain ``queue`` cost, so the
        profiler's totals are unchanged while the critical-path analyzer
        can split queueing by its underlying bottleneck.

        ``by`` optionally names the occupant ``(op, tenant)`` whose
        departure admitted this process (stamped on the grant by
        :meth:`~repro.sim.resources.Resource.release`).  Every
        resource-tagged charge also lands a ``queue_by`` tag — ``by=None``
        falls back to ``("(unknown)", None)`` — so per (resource, host)
        the occupant tags decompose ``queue_res`` exactly.
        """
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            keys = self._keys
            key = (kind, host)
            top.add_cost(keys.setdefault(key, key), us)
            if resource is not None:
                key = (resource, host)
                top.add_queue_resource(keys.setdefault(key, key), us)
                key = self._queue_by_key(by, resource, host)
                top.add_queue_by(keys.setdefault(key, key), us)
            return
        key = (host, kind)
        bucket = self.unattributed
        bucket[key] = bucket.get(key, 0.0) + us

    def charge_blocked(self, cause: str, kind: str, us: float,
                       host: Optional[str] = None,
                       resource: Optional[str] = None,
                       by: Optional[Tuple[str, Optional[str]]] = None
                       ) -> None:
        """Attribute ``us`` of blocked-on time to the innermost open span.

        Blocked-on edges decompose time a span spent waiting for *another
        process* (a Raft commit, typically) into the costs that gated it.
        They refine the span's idle residual rather than adding cost, so
        they are stored in ``Span.blocked`` — invisible to the profiler's
        conservation sums — and consumed only by
        :mod:`repro.sim.critpath`.  With no span open the charge is
        dropped: there is no waiting span to explain.

        ``resource`` / ``by`` additionally tag a queue-kind blocked edge
        with its occupant (the Raft batch-window wait passes
        ``resource="raft"`` and the label of the batch that was flushing),
        mirroring :meth:`charge`'s queue_by bookkeeping.
        """
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            keys = self._keys
            key = (cause, kind, host)
            top.add_blocked(keys.setdefault(key, key), us)
            if resource is not None:
                key = self._queue_by_key(by, resource, host)
                top.add_queue_by(keys.setdefault(key, key), us)

    @staticmethod
    def _queue_by_key(by: Optional[Tuple[str, Optional[str]]],
                      resource: str, host: Optional[str]) -> tuple:
        """The (op, tenant, resource, host) occupant tag of a charge."""
        if by is None:
            return ("(unknown)", None, resource, host)
        return (by[0], by[1], resource, host)

    def current_op_label(self) -> Optional[Tuple[str, Optional[str]]]:
        """The ``(op, tenant)`` identity of the currently executing
        process, for occupant tagging.

        RPC handlers run inline in the calling client's process, so the
        *first* span on the active process's stack is the operation root
        for client-driven work (``category == "op"``, carrying the
        system's tenant annotation).  Spawned 2PC fan-out legs root at
        their wrapper span instead, which carries the owning op's
        identity as an ``op_label`` annotation (see
        ``TafDBClient._fanout_leg``).  Other non-client processes (the
        Raft event loop, background maintenance) report their root
        span's name with no tenant.  Returns ``None`` with no open span —
        callers then tag ``"(unknown)"``.
        """
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if not stack:
            return None
        root = stack[0]
        attrs = root.attrs
        if root.category == CAT_OP:
            return (root.name, attrs.get("tenant") if attrs else None)
        if attrs:
            label = attrs.get("op_label")
            if label is not None:
                return (label[0], label[1])
        return (root.name, None)

    def open_costs(self) -> Dict[Tuple[Optional[str], str], float]:
        """(host, cost-kind) -> us charged to spans still open: work in
        flight when the run stopped (a background compaction round, a
        follower mid-append), which telemetry's busy counters include but
        no finished span — so no profile — carries."""
        out: Dict[Tuple[Optional[str], str], float] = {}
        for stack in self._stacks.values():
            for span in stack:
                for (kind, host), us in (span.costs or {}).items():
                    out[(host, kind)] = out.get((host, kind), 0.0) + us
        return out

    def retained_spans(self, ring: Optional[List[Span]] = None
                       ) -> List[Span]:
        """Every span still held: the ring plus kept tail trees, deduped
        and ordered by span id (creation order, deterministic).

        ``ring`` is this tracer's :attr:`spans` when the caller has read
        them already; the kept spans that fell out of the ring are added
        to a copy of it instead of reading the ring again.
        """
        out = self.spans if ring is None else list(ring)
        if self.keeper is None:
            return out
        seen = {span.span_id for span in out}
        for span in self.keeper.spans():
            if span.span_id not in seen:
                seen.add(span.span_id)
                out.append(span)
        out.sort(key=lambda s: s.span_id)
        return out

    def reset(self) -> None:
        """Drop every collected span (counters restart too)."""
        self._ring.clear()
        self._batch = []
        self._next_id = 0
        self.started = 0
        self.finished = 0
        self._stacks.clear()
        self.unattributed.clear()
        self._keys.clear()
        self._live_trees.clear()
        self.aggregates.clear()
        self._pending.clear()
        if self.keeper is not None:
            self.keeper.reset()


def trace_stats(tracer) -> Dict[str, int]:
    """Keep/drop accounting for one tracer, embedded in every trace export
    so consumers can tell how complete the span population is."""
    keeper = tracer.keeper
    return {
        "started": tracer.started,
        "finished": tracer.finished,
        "dropped": tracer.dropped,
        "kept_roots": keeper.kept_roots if keeper is not None else 0,
        "kept_errors": keeper.kept_errors if keeper is not None else 0,
        "kept_spans": keeper.kept_spans if keeper is not None else 0,
        "kept_evicted_roots":
            keeper.evicted_roots if keeper is not None else 0,
    }


# ---------------------------------------------------------------------------
# Span <-> JSON (live snapshot collection crosses process boundaries).
# ---------------------------------------------------------------------------

def span_to_jsonable(span: Span) -> Dict[str, Any]:
    """Flatten one finished span into JSON-safe structures.

    Tuple-keyed cost maps become lists of ``[key..., us]`` rows; ``None``
    hosts stay ``None``.  The inverse is :func:`span_from_jsonable`.
    """
    out: Dict[str, Any] = {
        "id": span.span_id,
        "parent": span.parent_id,
        "dyn_parent": span.dyn_parent_id,
        "name": span.name,
        "cat": span.category,
        "host": span.host,
        "start_us": span.start_us,
        "end_us": span.end_us,
        "ok": span.ok,
    }
    if span.attrs:
        out["attrs"] = dict(span.attrs)
    if span.costs:
        out["costs"] = [[kind, host, us]
                        for (kind, host), us in span.costs.items()]
    if span.queue_res:
        out["queue_res"] = [[res, host, us]
                            for (res, host), us in span.queue_res.items()]
    if span.blocked:
        out["blocked"] = [[cause, kind, host, us]
                          for (cause, kind, host), us in span.blocked.items()]
    if span.queue_by:
        out["queue_by"] = [
            [op, tenant, res, host, us]
            for (op, tenant, res, host), us in span.queue_by.items()]
    return out


def span_from_jsonable(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from :func:`span_to_jsonable` output."""
    span = Span(data["id"], data.get("parent", 0), data["name"],
                data.get("cat", ""), data.get("host"), data["start_us"])
    span.ok = bool(data.get("ok", True))
    span.dyn_parent_id = data.get("dyn_parent", 0)
    attrs = data.get("attrs")
    if attrs:
        span.attrs = dict(attrs)
    for kind, host, us in data.get("costs", ()):
        span.add_cost((kind, host), us)
    for res, host, us in data.get("queue_res", ()):
        span.add_queue_resource((res, host), us)
    for cause, kind, host, us in data.get("blocked", ()):
        span.add_blocked((cause, kind, host), us)
    for op, tenant, res, host, us in data.get("queue_by", ()):
        span.add_queue_by((op, tenant, res, host), us)
    span.end_us = data.get("end_us")
    return span


# ---------------------------------------------------------------------------
# The span index: the one place span-tree edges are built.
# ---------------------------------------------------------------------------

#: How a span links to its parent, in the order the edge rule tries them:
#: a cross-process link (live runtime), the dynamic parent (innermost open
#: span of the opening process), a ``join_to`` fan-out edge (a 2PC leg
#: joining back into the span that awaited it), the declared parent.
EDGE_REMOTE, EDGE_DYNAMIC, EDGE_JOIN, EDGE_DECLARED = range(4)

#: The edges a critical path follows: fan-out legs join a dynamic tree.
_GATING_EDGES = (EDGE_DYNAMIC, EDGE_JOIN)


def _fold_children(kids: List[Span]) -> List[Span]:
    """Select the children on the gating path.

    Serial siblings (disjoint intervals — the normal stack-discipline
    case) all stay.  Siblings whose intervals overlap are a fan-out
    group: the join waited on whichever leg finished *last*, so only
    that leg gates; the others ran in its shadow.  Back-to-back spans
    (end == next start, exact in the DES) are serial, not overlapping.
    """
    kids = sorted(kids, key=lambda s: (s.start_us, s.end_us, s.span_id))
    folded: List[Span] = []
    group = [kids[0]]
    group_end = kids[0].end_us
    for kid in kids[1:]:
        if kid.start_us < group_end:
            group.append(kid)
            group_end = max(group_end, kid.end_us)
        else:
            folded.append(max(group,
                              key=lambda s: (s.end_us, s.span_id)))
            group = [kid]
            group_end = kid.end_us
    folded.append(max(group, key=lambda s: (s.end_us, s.span_id)))
    return folded


class SpanIndex:
    """The finished spans of one span set and the tree edges between them,
    built once and read by every fold (``docs/observability.md``, "One
    span index").

    A span set is a tracer's ring, a retained set, or — with
    ``snapshots`` — the per-process span snapshots of a live cluster,
    keyed by ``(process, span_id)`` instead of ``span_id``.

    Each span has at most one *tree edge*: the first of its remote,
    dynamic, ``join_to`` and declared parent links (:data:`EDGE_REMOTE`
    ...).  A link whose target is not in the set leaves the span a root.
    The profile reads the dynamic edges, the critical path the dynamic
    and ``join_to`` ones, the live checks all of them.
    """

    __slots__ = ("spans", "processes", "_keys", "_kinds",
                 "_dangling", "_parents", "_dyn_parents", "_children",
                 "_dyn_child_us", "_gating")

    def __init__(self, spans: Iterable[Span] = (),
                 snapshots: Optional[Iterable[Dict[str, Any]]] = None):
        #: snapshot processes, in first-seen order (empty for one set).
        self.processes: List[str] = []
        keyed = snapshots is not None
        if not keyed:
            by_key = {span.span_id: span for span in spans
                      if span.end_us is not None}
        else:
            by_key = {}
            for snap in snapshots:
                proc = snap.get("process", "")
                if proc not in self.processes:
                    self.processes.append(proc)
                for data in snap.get("spans", ()):
                    span = span_from_jsonable(data)
                    if span.end_us is not None:
                        by_key[(proc, span.span_id)] = span
        self._keys = {span: key for key, span in by_key.items()} \
            if keyed else None
        #: every finished span, in input order.
        self.spans: List[Span] = list(by_key.values())
        #: span -> the kind of its tree edge, for every span with a link.
        self._kinds: Dict[Span, int] = {}
        #: span -> the key of a tree parent that is not in the set.
        self._dangling: Dict[Span, Any] = {}
        #: span -> its tree parent, when that is in the set.
        self._parents: Dict[Span, Span] = {}
        #: the dynamic edges of ``_parents``.
        self._dyn_parents: Dict[Span, Span] = {}
        #: span -> its tree children (every edge kind), in input order.
        self._children: Dict[Span, List[Span]] = {}
        #: span -> summed duration of its dynamic children.
        self._dyn_child_us: Dict[Span, float] = {}
        self._gating: Dict[Span, List[Span]] = {}
        kinds = self._kinds
        parents = self._parents
        dyn_parents = self._dyn_parents
        children = self._children
        child_us = self._dyn_child_us
        for key, span in by_key.items():
            # The edge rule: the first link present names the parent.
            attrs = span.attrs
            if attrs and "remote_parent_proc" in attrs:
                kind = EDGE_REMOTE
                # In a single set the remote parent lives elsewhere.
                parent_key = (str(attrs["remote_parent_proc"]),
                              int(attrs.get("remote_parent_span", 0))) \
                    if keyed else None
            else:
                if span.dyn_parent_id:
                    kind, parent_id = EDGE_DYNAMIC, span.dyn_parent_id
                elif attrs and attrs.get("join_to"):
                    kind, parent_id = EDGE_JOIN, int(attrs["join_to"])
                elif span.parent_id:
                    kind, parent_id = EDGE_DECLARED, span.parent_id
                else:
                    continue
                parent_key = (key[0], parent_id) if keyed else parent_id
            kinds[span] = kind
            parent = by_key.get(parent_key)
            if parent is None:
                self._dangling[span] = parent_key
                continue
            parents[span] = parent
            kids = children.get(parent)
            if kids is None:
                children[parent] = [span]
            else:
                kids.append(span)
            if kind == EDGE_DYNAMIC:
                dyn_parents[span] = parent
                child_us[parent] = child_us.get(parent, 0.0) + \
                    span.duration_us

    def key(self, span: Span) -> Any:
        """``span_id``, or ``(process, span_id)`` for snapshots."""
        return self._keys[span] if self._keys is not None else span.span_id

    def edge(self, span: Span) -> Optional[Tuple[int, Any]]:
        """``(edge kind, parent key)`` of ``span``'s tree edge, whether or
        not the parent is in the set; ``None`` for a span with no link."""
        kind = self._kinds.get(span)
        if kind is None:
            return None
        parent = self._parents.get(span)
        return kind, (self._dangling[span] if parent is None
                      else self.key(parent))

    def parent(self, span: Span) -> Optional[Span]:
        """``span``'s tree parent, or ``None`` for a root."""
        return self._parents.get(span)

    def dyn_roots(self) -> List[Span]:
        """Spans with no dynamic parent in the set, in input order: true
        roots, spans opened by spawned processes, and orphans."""
        dyn_parents = self._dyn_parents
        return [span for span in self.spans if span not in dyn_parents]

    def dyn_self_us(self, span: Span) -> float:
        """Duration minus the dynamic children's durations (unclipped)."""
        return span.duration_us - self._dyn_child_us.get(span, 0.0)

    def dyn_paths(self, label: Callable[[str], str]
                  ) -> Dict[Span, Tuple[str, ...]]:
        """span -> ``label`` of every span name from its dynamic root down
        to it (the flame-graph stack)."""
        paths: Dict[Span, Tuple[str, ...]] = {}
        dyn_parents = self._dyn_parents
        for span in self.spans:
            if span in paths:
                continue
            chain = []
            node = span
            while node is not None and node not in paths:
                chain.append(node)
                node = dyn_parents.get(node)
            path = paths[node] if node is not None else ()
            for node in reversed(chain):
                path = path + (label(node.name),)
                paths[node] = path
        return paths

    def gating_children(self, span: Span) -> Sequence[Span]:
        """``span``'s children on a critical path: its dynamic children and
        ``join_to`` legs, each overlapping group folded to the leg that
        finished last, ordered by ``(start, end, span_id)``."""
        kids = self._gating.get(span)
        if kids is None:
            children = self._children.get(span)
            if children is None:
                return ()
            kinds = self._kinds
            kids = [kid for kid in children if kinds[kid] in _GATING_EDGES]
            if len(kids) > 1:
                kids = _fold_children(kids)
            self._gating[span] = kids
        return kids

    def gating_self_us(self, span: Span) -> float:
        """Duration minus the gating children's durations, floored at 0:
        unlike :meth:`dyn_self_us`, the gating fan-out legs are
        subtracted too."""
        value = span.duration_us - sum(
            kid.duration_us for kid in self.gating_children(span))
        return value if value > 0.0 else 0.0

    def tree(self, root: Span) -> List[Span]:
        """Every span under ``root`` over every edge kind (itself
        included), each once."""
        seen = set()
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(self._children.get(node, ()))
        return order


def category_summary(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """category -> (span count, summed duration); the coarse cost map."""
    out: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, total = out.get(span.category, (0, 0.0))
        out[span.category] = (count + 1, total + span.duration_us)
    return out


# ---------------------------------------------------------------------------
# Chrome-trace (Perfetto) export.
# ---------------------------------------------------------------------------

def chrome_trace_events(spans: Iterable[Span], pid: int = 1,
                        process_name: Optional[str] = None,
                        ts_offset_us: float = 0.0) -> List[dict]:
    """Render spans as Chrome-trace complete events for one process track.

    Each distinct host becomes a thread (tid) inside the process; spans with
    no host attribution share a synthetic "orchestration" thread.  ``ts`` is
    simulated microseconds, which is exactly the unit the format wants.
    ``ts_offset_us`` shifts every timestamp — the live trace merge uses it
    to put per-process wallclocks (each with its own epoch) on one axis.
    """
    events: List[dict] = []
    if process_name:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process_name}})
    tids: Dict[str, int] = {}

    def tid_of(host: Optional[str]) -> int:
        label = host or "orchestration"
        tid = tids.get(label)
        if tid is None:
            tid = tids[label] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": label}})
        return tid

    for span in spans:
        if span.end_us is None:
            continue
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start_us + ts_offset_us,
            "dur": span.duration_us,
            "pid": pid,
            "tid": tid_of(span.host),
            "args": {"span_id": span.span_id,
                     "parent_id": span.parent_id,
                     "ok": span.ok},
        }
        if span.attrs:
            event["args"].update(span.attrs)
        events.append(event)
    return events


def export_chrome_trace(sections: Sequence[Tuple[str, Iterable[Span]]],
                        stats: Optional[Dict[str, Dict[str, int]]] = None,
                        ) -> dict:
    """Build one Chrome-trace payload; each section is its own pid track.

    ``stats`` (per-section :func:`trace_stats` dicts) rides along as a
    ``traceStats`` top-level key — Perfetto ignores unknown keys, and the
    keep/drop accounting must survive into every export so nobody
    mistakes a ring-truncated trace for a complete one.
    """
    events: List[dict] = []
    for pid, (name, spans) in enumerate(sections, start=1):
        events.extend(chrome_trace_events(spans, pid=pid, process_name=name))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if stats is not None:
        payload["traceStats"] = {name: dict(stats[name])
                                 for name in sorted(stats)}
    return payload


#: What ``chrome://tracing`` / Perfetto actually require: a ``traceEvents``
#: array of objects with ``name``/``ph``/``pid``/``tid`` and ``args``
#: objects where present ...
CHROME_TRACE_SHAPE = {"traceEvents": [{
    "name": "str",
    "ph": ("enum", ("X", "M", "B", "E", "i"), "unsupported"),
    "pid": "int",
    "tid": "int",
    "args?": {},
}]}
#: ... plus numeric non-negative ``ts``+``dur`` on complete ("X") events.
_COMPLETE_EVENT_SHAPE = {"ts": "num>=0", "dur": "num>=0"}


def validate_chrome_trace(payload: dict) -> List[str]:
    """Schema-check a Chrome-trace payload; returns a list of problems."""
    problems = check_shape(payload, CHROME_TRACE_SHAPE)
    for where, event in shape_items(payload, "traceEvents"):
        if event.get("ph") == "X":
            problems += check_shape(event, _COMPLETE_EVENT_SHAPE,
                                    where=where)
    return problems
