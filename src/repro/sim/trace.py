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
  buffer (oldest spans fall out).
* **Tail retention** — the ring keeps the most recent spans, so the p999
  stragglers that define SLOs fall out as readily as any other.  A
  :class:`TailKeeper` attached to the tracer
  additionally retains the full span tree of any root op that errored or
  whose duration clears a per-op-type adaptive threshold (a quantile of
  the op's own duration digest), under a bounded span budget with whole-
  tree eviction — so slow-op exemplars survive ring pressure.  The keep
  decision depends only on simulated durations, so it is deterministic.

Enable tracing with ``MANTLE_TRACE=1`` (every :class:`~repro.sim.core.Simulator`
constructed in the process gets a live tracer), ``MantleConfig(tracing=True)``
(one Mantle deployment), or by assigning ``sim.tracer = Tracer()`` directly.

The module also ships :class:`SpanIndex` — the one place span-tree edges
are built, which every fold reads — a Chrome-trace (``chrome://tracing`` /
Perfetto JSON) exporter, :func:`aggregate_ops` — the one fold from spans to
the paper's per-phase tables (phases are recorded nowhere else) — and
:func:`check_shape`, the declarative checker behind every export validator.
"""

from __future__ import annotations

import bisect
import collections
import math
from types import MappingProxyType
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

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
        res = self.queue_res
        if res is None:
            res = self.queue_res = {}
        res[key] = res.get(key, 0.0) + us

    def add_blocked(self, key: Tuple[str, str, Optional[str]],
                    us: float) -> None:
        """Accumulate blocked-on time under ``key`` = (cause, kind, host)."""
        blocked = self.blocked
        if blocked is None:
            blocked = self.blocked = {}
        blocked[key] = blocked.get(key, 0.0) + us

    def add_queue_by(self, key: Tuple[str, Optional[str], str,
                                      Optional[str]], us: float) -> None:
        """Tag queue time with ``key`` = (op, tenant, resource, host): the
        occupant that preceded it on that resource."""
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
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.category}/{self.name!r} "
                f"parent={self.parent_id} host={self.host!r} "
                f"[{self.start_us}, {self.end_us}] ok={self.ok})")


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

    @property
    def spans(self) -> Sequence[Span]:
        return ()

    @property
    def dropped(self) -> int:
        return 0

    def retained_spans(self):
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

#: Default ring capacity: ~65 MB of spans at ~250 B each (attributes
#: aside), far above what the quick-scale workloads produce, small enough
#: to bound long soak runs.
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


class _DurationBuckets:
    """One op type's root durations in :class:`~repro.sim.telemetry.Digest`
    buckets, keys kept sorted as they first appear.

    :meth:`quantile` equals ``Digest.quantile`` over the same samples (one
    window), but walks down from the largest bucket instead of summing
    and sorting every bucket: a tail quantile is a few steps from the top,
    and the keeper asks for one per finished root.
    """

    __slots__ = ("counts", "keys", "total")

    def __init__(self):
        #: bucket index -> samples in it.
        self.counts: Dict[int, int] = {}
        #: the bucket indexes in ``counts``, ascending.
        self.keys: List[int] = []
        self.total = 0

    def record(self, value: float) -> None:
        b = _telemetry.digest_bucket(value)
        count = self.counts.get(b)
        if count is None:
            self.counts[b] = 1
            bisect.insort(self.keys, b)
        else:
            self.counts[b] = count + 1
        self.total += 1

    def quantile(self, q: float) -> float:
        # The lowest bucket whose cumulative count exceeds the rank is the
        # lowest one with fewer than ``total - rank`` samples above it.
        rank = max(0, int(math.ceil(q * self.total)) - 1)
        need = self.total - rank
        above = 0
        counts = self.counts
        keys = self.keys
        i = len(keys) - 1
        while i > 0 and above + counts[keys[i]] < need:
            above += counts[keys[i]]
            i -= 1
        return _telemetry.digest_bucket_value(keys[i])


class TailKeeper:
    """Keep policy retaining whole span trees for tail/error exemplars.

    Attach via ``Tracer(keeper=TailKeeper(...))``.  For every finished
    root the keeper decides: keep the tree if the root errored, or if its
    duration reaches the op type's threshold — ``threshold_us`` when
    fixed, else the :data:`DEFAULT_KEEP_QUANTILE` of the op's own
    durations in :class:`~repro.sim.telemetry.Digest` buckets (one
    run-long window, so the threshold inherits the digest's error bound).
    Until an op type has ``min_samples`` observations its roots are all
    kept — early stragglers are exactly the ones worth keeping, and the
    span ``budget`` bounds memory either way: once exceeded, the oldest
    kept trees are evicted whole (``evicted_roots`` counts them).

    Decisions read only simulated durations and integer counts, never the
    wall clock or an RNG — identical traffic keeps identical trees on
    every kernel.
    """

    __slots__ = ("quantile", "threshold_us", "min_samples", "budget",
                 "kept_roots", "kept_errors", "evicted_roots", "_trees",
                 "_span_count", "_durations")

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
        #: root span_id -> that root's full finished tree (insertion-ordered
        #: by root finish time, which is what eviction walks).
        self._trees: Dict[int, List[Span]] = {}
        self._span_count = 0
        #: op name -> root durations feeding the adaptive thresholds.
        self._durations: Dict[str, _DurationBuckets] = {}

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
                durations = self._durations[root.name] = _DurationBuckets()
            durations.record(root.duration_us)
        if not keep:
            return False
        self.kept_roots += 1
        if not root.ok:
            self.kept_errors += 1
        self._trees[root.span_id] = tree
        self._span_count += len(tree)
        while self._span_count > self.budget and len(self._trees) > 1:
            oldest = next(iter(self._trees))
            self._span_count -= len(self._trees.pop(oldest))
            self.evicted_roots += 1
        return True

    @property
    def kept_spans(self) -> int:
        """Spans currently retained across all kept trees."""
        return self._span_count

    def trees(self) -> List[List[Span]]:
        """Kept trees, oldest root first."""
        return list(self._trees.values())

    def spans(self) -> List[Span]:
        """Every retained span, flattened (tree order, root last)."""
        out: List[Span] = []
        for tree in self._trees.values():
            out.extend(tree)
        return out

    def reset(self) -> None:
        self.kept_roots = 0
        self.kept_errors = 0
        self.evicted_roots = 0
        self._trees.clear()
        self._span_count = 0
        self._durations.clear()


class Tracer:
    """Collects finished spans into a bounded ring buffer.

    Parameters
    ----------
    max_spans:
        Ring capacity; once full, the oldest finished spans fall out and
        :attr:`dropped` counts them.
    keeper:
        Optional :class:`TailKeeper`; finished trees of slow or failed
        roots are retained beyond the ring under its budget.
    """

    __slots__ = ("_ring", "_next_id", "started", "finished", "_sim",
                 "_stacks", "unattributed", "keeper", "_keys",
                 "_live_trees")

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 keeper: Optional[TailKeeper] = None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._ring: collections.deque = collections.deque(maxlen=max_spans)
        self._next_id = 0
        self.keeper = keeper
        #: Every cost-map key charged so far, mapped to itself: spans share
        #: one tuple per distinct key instead of holding one per charge.
        self._keys: Dict[tuple, tuple] = {}
        #: root span_id -> finished spans of its still-open tree.
        self._live_trees: Dict[int, List[Span]] = {}
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
    def spans(self) -> Sequence[Span]:
        """Finished spans, oldest first (a snapshot-free live view)."""
        return self._ring

    @property
    def dropped(self) -> int:
        """Finished spans that fell out of the ring."""
        return self.finished - len(self._ring)

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
        """Close a span and commit it to the ring."""
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
        self._ring.append(span)
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

    def retained_spans(self) -> List[Span]:
        """Every span still held: the ring plus kept tail trees, deduped
        and ordered by span id (creation order, deterministic)."""
        if self.keeper is None:
            return list(self._ring)
        seen = set()
        out: List[Span] = []
        for span in self._ring:
            seen.add(span.span_id)
            out.append(span)
        for span in self.keeper.spans():
            if span.span_id not in seen:
                seen.add(span.span_id)
                out.append(span)
        out.sort(key=lambda s: s.span_id)
        return out

    def reset(self) -> None:
        """Drop every collected span (counters restart too)."""
        self._ring.clear()
        self._next_id = 0
        self.started = 0
        self.finished = 0
        self._stacks.clear()
        self.unattributed.clear()
        self._keys.clear()
        self._live_trees.clear()
        if self.keeper is not None:
            self.keeper.reset()


def trace_stats(tracer) -> Dict[str, int]:
    """Keep/drop accounting for one tracer, embedded in every trace export
    so consumers can tell how complete the span population is."""
    keeper = getattr(tracer, "keeper", None)
    return {
        "started": getattr(tracer, "started", 0),
        "finished": getattr(tracer, "finished", 0),
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
    span.end_us = data.get("end_us")
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
    return span


# ---------------------------------------------------------------------------
# Aggregation: spans -> the paper's per-phase / per-RPC tables.
# ---------------------------------------------------------------------------

class OpAggregate:
    """Per-operation rollup of root spans and their direct children.

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


def aggregate_ops(index: "SpanIndex") -> Dict[str, OpAggregate]:
    """Fold a span set into per-operation aggregates.

    Only ``op``-category spans and their *declared* children matter here
    (so ``rpcs`` counts exactly what ``OpContext.rpcs`` does); deeper
    descendants (handlers under RPCs, 2PC phases under transactions) are
    drill-down detail for the exported trace.
    """
    out: Dict[str, OpAggregate] = {}
    for root in index.spans:
        if root.category != CAT_OP:
            continue
        agg = out.get(root.name)
        if agg is None:
            agg = out[root.name] = OpAggregate(root.name)
        if not root.ok:
            agg.failures += 1
            continue
        agg.count += 1
        agg.total_latency_us += root.duration_us
        per_phase: Dict[str, float] = {}
        for child in index.declared_children(root):
            if child.category == CAT_PHASE:
                per_phase[child.name] = (
                    per_phase.get(child.name, 0.0) + child.duration_us)
            elif child.category == CAT_RPC:
                agg.rpcs_total += 1
        for phase, total in per_phase.items():
            seen, acc = agg.phases.get(phase, (0, 0.0))
            agg.phases[phase] = (seen + 1, acc + total)
    return out


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
    and ``join_to`` ones, the live checks all of them, and
    ``aggregate_ops`` the declared parents, kept apart.
    """

    __slots__ = ("spans", "processes", "_by_key", "_keys", "_kinds",
                 "_dangling", "_parents", "_dyn_parents", "_children",
                 "_dyn_child_us", "_gating", "_declared")

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
        self._by_key: Dict[Any, Span] = by_key
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
        self._declared: Optional[Dict[Span, List[Span]]] = None
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

    def declared_children(self, span: Span) -> List[Span]:
        """The spans that declared ``span`` as their parent, in input
        order."""
        if self._declared is None:
            self._declared = {}
            for child in self.spans:
                parent = self._by_key.get(
                    child.parent_id if self._keys is None
                    else (self._keys[child][0], child.parent_id))
                if child.parent_id and parent is not None:
                    self._declared.setdefault(parent, []).append(child)
        return self._declared.get(span, [])


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


# ---------------------------------------------------------------------------
# Export shape checking — the one declarative checker every ``validate_*``
# in the repo calls; each format keeps only its invariants as code.
# ---------------------------------------------------------------------------

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


# Bottom import: telemetry imports this module's ``check_shape``, so it can
# only load once everything above exists (``TailKeeper`` reads the digest
# buckets at call time).
from repro.sim import telemetry as _telemetry  # noqa: E402
