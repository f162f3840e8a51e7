"""Generator-coroutine discrete-event simulation kernel.

A *process* is a Python generator that yields :class:`Event` objects; the
kernel resumes it with the event's value once the event triggers.  Composite
waits use :class:`AnyOf` / :class:`AllOf`.  The design follows the classic
SimPy execution model but is implemented from scratch (no third-party
dependency) and trimmed to what the Mantle reproduction needs: timeouts,
one-shot events, process join, interrupts for failure injection, and strict
determinism (FIFO tie-breaking on equal timestamps).

Time is a float in simulated microseconds.

Scheduling uses two tiers.  Delayed events go through a binary heap keyed by
``(time, seq)``.  Zero-delay events — event triggers, process completions,
resource grants — go through a FIFO *microtask* deque instead, skipping the
heap entirely.  The total order is identical to running everything through
the heap: a heap entry at the current timestamp was necessarily pushed at an
earlier simulated time (a push at the current time lands in the deque), so
it carries a smaller sequence number than anything in the deque, and deque
entries preserve FIFO order among themselves.  The event loop therefore
drains heap entries at the current time first, then the deque, then advances
the clock.  An entry on either tier is an :class:`Event` to deliver to its
callbacks, or a ``(function, arg)`` pair the loop calls directly — how a
deferred resume, a CPU slice's start and a network flight step without an
event of their own (:meth:`Simulator._at`).  This is the only scheduler.
The all-heap order it must reproduce survives as a test oracle
(``tests/oracle.py``: a subclass whose ``_micro.append`` pushes onto the
heap), and ``tests/sim/test_scheduler_reference.py`` and
``tests/experiments/test_fastpath_determinism.py`` hold the two to
bit-identical results.
"""

from __future__ import annotations

import collections
import heapq
import os
from typing import Any, Callable, Generator, Iterable, List, Optional

from heapq import heappush as _heappush

import repro.sim.trace as trace_module
import repro.sim.telemetry as telemetry_module

_PENDING = object()


def _tracing_default() -> bool:
    """Span tracing is off unless ``MANTLE_TRACE`` enables it."""
    return os.environ.get("MANTLE_TRACE", "0").lower() in (
        "1", "true", "on", "yes")


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not a modelled failure)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Used for failure injection (killing a server loop) and for cancelling
    timers (Raft election timeouts).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called,
    and *processed* once the kernel has delivered it to all callbacks.
    Callback lists may contain ``None`` tombstones left by O(1) detaches;
    the event loop skips them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Optional[Callable[["Event"], None]]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._micro.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.sim._micro.append(self)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so it won't crash the simulation."""
        self._defused = True
        return self


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flat slot initialisation (no super() chain): this constructor is
        # the hottest allocation site in the kernel.
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        when = sim._now + delay
        if when == sim._now:
            sim._micro.append(self)
        else:
            sim._seq += 1
            _heappush(sim._queue, (when, sim._seq, self))

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("timeouts trigger themselves")


class _Bootstrap:
    """Pseudo-trigger used to kick off a process without a heap round trip."""

    __slots__ = ()
    _ok = True
    _value = None
    callbacks = None
    _defused = True


_INIT = _Bootstrap()


class Process(Event):
    """Wraps a generator and drives it; the process *is* an event that
    triggers with the generator's return value (so processes can be joined
    by yielding them)."""

    __slots__ = ("_generator", "_send", "_throw", "_waiting_on",
                 "_waiting_index", "_cb", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            ) from None
        # Flat slot initialisation, as in Timeout: InfiniFS spawns one
        # process per speculative read.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._waiting_index = -1
        # One bound method reused for every wait; also the identity token the
        # O(1) tombstone detach compares against.
        self._cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current simulation time.
        sim._micro.append((self._cb, _INIT))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            return
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True
        ev.callbacks.append(self._cb)
        self.sim._micro.append(ev)

    def _resume(self, trigger: Event) -> None:
        if self._value is not _PENDING:
            return  # interrupted-and-finished race
        # Publish which process is executing: the tracer's cost-attribution
        # stacks (repro.sim.profile) key on this to charge simulated work to
        # the innermost open span of the running process.  One attribute
        # store per resume; nothing in the kernel ever reads it.
        self.sim._active_process = self
        # Detach from whatever we were waiting on.
        waited = self._waiting_on
        if waited is not None:
            self._waiting_on = None
            if waited is not trigger and waited.callbacks is not None:
                # O(1) detach: we recorded where we appended our callback and
                # tombstone that slot instead of scanning the whole list.
                cbs = waited.callbacks
                idx = self._waiting_index
                if 0 <= idx < len(cbs) and cbs[idx] is self._cb:
                    cbs[idx] = None
                else:  # pragma: no cover - defensive fallback
                    try:
                        cbs.remove(self._cb)
                    except ValueError:
                        pass
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                trigger._defused = True
                target = self._throw(trigger._value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - modelled failure path
            self._finish(False, exc)
            return
        sim = self.sim
        if not isinstance(target, Event):
            kind = type(target).__name__
            self._generator.close()
            self._finish(
                False,
                SimulationError(
                    f"process {self.name!r} yielded a {kind}; processes must "
                    "yield Event instances (use 'yield from' for sub-generators)"
                ),
            )
            return
        if target.sim is not sim:
            self._finish(False, SimulationError("yielded event from another simulator"))
            return
        self._waiting_on = target
        cbs = target.callbacks
        if cbs is None:
            # Already processed: resume at the same timestamp through a
            # deferred ``(callback, trigger)`` microtask.
            if not target._ok:
                target._defused = True
            sim._micro.append((self._cb, target))
            self._waiting_index = -1
        else:
            self._waiting_index = len(cbs)
            cbs.append(self._cb)

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        # A finished process never resumes: drop the bound method, the
        # process's reference cycle, so refcounting frees it, not the GC.
        self._cb = None
        self.sim._micro.append(self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        evs = self.events = list(events)
        self._remaining = len(evs)
        if not evs:
            self.succeed([])
            return
        check = self._check
        for ev in evs:
            if ev.sim is not sim:
                raise SimulationError("mixing events from different simulators")
            cbs = ev.callbacks
            if cbs is None:
                check(ev)
            else:
                cbs.append(check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; value is their values.

    Fails fast if any child fails (remaining children are abandoned).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers as soon as one child triggers; value is (index, value)."""

    __slots__ = ("_indices",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        # O(1) child -> index lookup.  Built back-to-front so the first
        # occurrence wins for duplicate children, matching ``list.index``.
        n = len(events)
        self._indices = {ev: n - 1 - i for i, ev in enumerate(reversed(events))}
        super().__init__(sim, events)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed((self._indices[event], event._value))


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    5.0
    """

    def __init__(self, tracer=None, telemetry=None):
        self._now = 0.0
        self._seq = 0
        # Delayed pushes land in the ``_queue`` heap, zero-delay ones in the
        # ``_micro`` FIFO deque.
        self._queue: List = []
        self._micro: collections.deque = collections.deque()
        self._active_process: Optional[Process] = None
        if tracer is None:
            tracer = (trace_module.Tracer() if _tracing_default()
                      else trace_module.NULL_TRACER)
        #: Span collector consulted by instrumented layers; the default is
        #: the shared no-op singleton, so untraced runs pay only an
        #: ``enabled`` check per instrumentation site.  Assign a
        #: :class:`repro.sim.trace.Tracer` to turn tracing on; the tracer
        #: never creates simulator events, so simulated results are
        #: identical either way.
        self.tracer = tracer
        # Cost attribution (repro.sim.profile) keys span stacks by the
        # currently executing process; give the tracer access to it.
        tracer.bind(self)
        if telemetry is None:
            telemetry = (telemetry_module.Telemetry()
                         if telemetry_module._telemetry_default()
                         else telemetry_module.NULL_TELEMETRY)
        #: Windowed time-series registry consulted by instrumented layers;
        #: same on/off contract as the tracer — the default is the no-op
        #: singleton, sites guard on ``telemetry.enabled``, and enabling it
        #: cannot change simulated results.  Assign a
        #: :class:`repro.sim.telemetry.Telemetry` (before or during a run)
        #: to start collecting.
        self.telemetry = telemetry
        self._runtime = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def runtime(self):
        """This simulator's :class:`~repro.runtime.base.SimRuntime`.

        Server-side code (RPC handlers charging work/fsync) resolves its
        runtime through ``host.sim.runtime``; the live facade objects
        expose an :class:`~repro.runtime.aio.AsyncioRuntime` under the
        same attribute, which is how one handler body serves both worlds.
        The cached instance carries no network — client-side code gets a
        transport-capable runtime from its system instead.
        """
        runtime = self._runtime
        if runtime is None:
            from repro.runtime.base import SimRuntime
            runtime = self._runtime = SimRuntime(self)
        return runtime

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Inlined Timeout construction (mirrors Timeout.__init__): this is
        # the single hottest allocation site in every experiment, so it's
        # worth skipping the constructor-call indirection.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = []
        t._ok = True
        t._value = value
        t._defused = False
        t.delay = delay
        now = self._now
        when = now + delay
        if when == now:
            self._micro.append(t)
        else:
            self._seq += 1
            _heappush(self._queue, (when, self._seq, t))
        return t

    def _at(self, delay: float, entry) -> None:
        """Schedule ``entry`` — an event to deliver, or a ``(function,
        arg)`` pair to call — ``delay`` microseconds from now, routed
        exactly as :meth:`timeout` routes a timeout."""
        now = self._now
        when = now + delay
        if when == now:
            self._micro.append(entry)
        else:
            self._seq += 1
            _heappush(self._queue, (when, self._seq, entry))

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        queue = self._queue
        micro = self._micro
        heappop = heapq.heappop
        limit = None if until is None else float(until)
        now = self._now
        while True:
            # Heap entries at the current time predate (carry smaller seq
            # than) anything in the microtask deque, so they go first.
            if queue and queue[0][0] <= now:
                event = heappop(queue)[2]
            elif micro:
                event = micro.popleft()
            elif queue:
                when = queue[0][0]
                if limit is not None and when > limit:
                    self._now = limit
                    return
                now = self._now = when
                event = heappop(queue)[2]
            else:
                break
            if type(event) is tuple:
                event[0](event[1])
                continue
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
            if not event._ok and not event._defused:
                # Failed event: loud-crash unless someone actually handled
                # it (tombstoned slots don't count as handlers).
                if not callbacks or all(cb is None for cb in callbacks):
                    raise event._value
        if limit is not None and limit > now:
            self._now = limit

    def run_until(self, event: Event) -> None:
        """Process events until ``event`` triggers (or the queue drains).

        Unlike :meth:`run`, this lets callers wait for one process while
        perpetual background processes (compactors, Raft heartbeats) keep
        the queue non-empty.
        """
        queue = self._queue
        micro = self._micro
        heappop = heapq.heappop
        now = self._now
        while event._value is _PENDING:
            if queue and queue[0][0] <= now:
                current = heappop(queue)[2]
            elif micro:
                current = micro.popleft()
            elif queue:
                when, _seq, current = heappop(queue)
                now = self._now = when
            else:
                break
            if type(current) is tuple:
                current[0](current[1])
                continue
            callbacks = current.callbacks
            current.callbacks = None
            if callbacks:
                for callback in callbacks:
                    if callback is not None:
                        callback(current)
            if not current._ok and not current._defused:
                if not callbacks or all(cb is None for cb in callbacks):
                    raise current._value

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn a process, run until it completes, return its
        value.

        Used by the synchronous facade (:class:`repro.core.api.MantleClient`)
        to hide the event loop from library users.
        """
        proc = self.process(generator, name)
        self.run_until(proc)
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} deadlocked")
        if not proc.ok:
            # The caller is handling the failure; don't let the queued
            # process event crash a later run() pass.
            proc.defused()
            raise proc.value
        return proc.value
