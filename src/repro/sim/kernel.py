"""The discrete-event simulation core.

A :class:`Simulator` owns a priority queue of timestamped events.  Running
the simulator pops events in time order and invokes their callbacks; each
callback may schedule further events.  Ties are broken by insertion order,
which makes runs deterministic for a fixed seed.

The heap holds the :class:`Event` objects themselves: each is a list
``[time, seq, callback, args, sim]``, so ``heapq`` orders entries on
``(time, seq)`` with C list comparison and the loops read the fields by
index.  No Python method runs to create, order or dispatch an event.

Time is a float number of microseconds.  Nothing in the kernel depends on
the unit, but the rest of the library adopts microseconds so that the
paper's constants can be written literally.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.conform.digest import RunDigest
    from repro.obs.flight import FlightRecorder
    from repro.obs.trace import Tracer


#: the horizon of a run without ``until`` (no event time exceeds it) and
#: the event budget of one without ``max_events``.
_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Event(list):
    """A scheduled callback, and its own heap entry.

    An event is the list ``[time, seq, callback, args, sim]`` that sits in
    the simulator's heap: there is no wrapper tuple around it.  ``seq`` is
    unique, so ``heapq``'s list comparison orders entries on ``(time,
    seq)``, in C, and never reaches the callback.  ``sim`` is the owning
    simulator while the event is queued and ``None`` once it fired or was
    cancelled; a cancelled event also drops its callback, which is how the
    loop tells a dead entry from a live one.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled before they fire.
    The fields read through the properties below; the kernel's loops read
    them by index.  Like any list, an event is unhashable: key timers by
    what they time, not by the event.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Simulated time the event fires at.")
    seq = property(itemgetter(1), doc="Insertion number: breaks time ties FIFO.")
    callback = property(itemgetter(2), doc="The callable (``None`` once cancelled).")
    args = property(itemgetter(3), doc="Positional arguments for the callback.")

    def cancel(self) -> None:
        """Prevent the event from firing.  A no-op once it fired or was
        cancelled, so it is safe to call more than once."""
        sim = self[4]
        if sim is not None:
            self[4] = None
            self[2] = None
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self[2] is None:
            state = "cancelled"
        else:
            state = "pending" if self[4] is not None else "fired"
        return f"<Event t={self[0]:.3f} seq={self[1]} {state}>"


class Simulator:
    """Discrete-event simulator with a microsecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, print, "ten microseconds in")
        sim.run(until=100.0)
    """

    # Compaction policy: when more than half the heap is cancelled
    # events (and the heap is big enough for the O(n) rebuild to pay
    # off), filter them out and re-heapify.  Credit timers and skeptic
    # hold-downs cancel heavily, so without this the heap grows with
    # dead entries that every push/pop then sifts through.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        #: current simulated time in microseconds.  A plain attribute:
        #: only :meth:`run` writes it.
        self.now = 0.0
        #: heap of :class:`Event` entries ``[time, seq, callback, args,
        #: sim]``, ordered on ``(time, seq)`` by heapq's list comparison.
        self._queue: List[Event] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._digest: Optional["RunDigest"] = None
        self._profiler: Optional[Any] = None
        #: optional :class:`~repro.obs.trace.Tracer`.  A plain attribute,
        #: read by :meth:`note` and the few high-rate tracer-only sites at
        #: call time; the kernel's loop never consults it, so attaching
        #: one (at any time) leaves the hot loop as the class-level
        #: bytecode.
        self.tracer: Optional["Tracer"] = None
        #: optional :class:`~repro.obs.flight.FlightRecorder`.  A plain
        #: attribute too: fed by :meth:`note`, and otherwise consulted
        #: only when an exception escapes :meth:`run`.
        self.recorder: Optional["FlightRecorder"] = None

    # ------------------------------------------------------------------
    # the protocol event log
    # ------------------------------------------------------------------
    def note(self, category: str, component: str, name: str, **fields: Any) -> None:
        """Report one protocol transition, stamped :attr:`now`.

        The one reporting call of every transition site: the same record
        goes to the flight recorder and, while one is attached, to the
        tracer, so a tracer attached mid-run sees every transition from
        then on.
        """
        now = self.now
        if self.recorder is not None:
            self.recorder.record(now, category, component, name, **fields)
        if self.tracer is not None:
            self.tracer.emit(now, category, component, name, **fields)

    # ------------------------------------------------------------------
    # instrumentation (run digest + profiler hook)
    # ------------------------------------------------------------------
    # Attaching a digest or a profiler swaps a per-instance instrumented
    # implementation of run into the instance dict; detaching both
    # removes it so lookups fall back to the class method.
    # The uninstrumented bytecode therefore contains no digest/profiler
    # checks at all -- the disabled hot path is the original hot path,
    # byte for byte.
    def _refresh_instrumentation(self) -> None:
        if self._digest is not None or self._profiler is not None:
            self.__dict__["run"] = self._run_instrumented
        else:
            self.__dict__.pop("run", None)

    @property
    def digest(self) -> Optional["RunDigest"]:
        """The attached :class:`~repro.conform.digest.RunDigest`, or ``None``.

        While attached, every executed event feeds ``(time, seq, callback
        identity)`` into the digest's streaming hash, so two runs with the
        same digest hex dispatched the same events in the same order.
        """
        return self._digest

    @digest.setter
    def digest(self, digest: Optional["RunDigest"]) -> None:
        self._digest = digest
        self._refresh_instrumentation()

    @property
    def profiler(self) -> Optional[Any]:
        """The attached profiler hook, or ``None``.

        Any object with ``dispatch(callback, args)``.  While attached,
        the kernel hands it every event instead of calling
        ``callback(*args)`` itself; the hook must make that call exactly
        once, so a profiled run dispatches the same events in the same
        order as an unprofiled one.  ``benchmarks/e2e/spans.py``'s
        ``SpanRecorder`` is the hook behind the per-layer table.
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Optional[Any]) -> None:
        self._profiler = profiler
        self._refresh_instrumentation()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (a work metric)."""
        return self._events_executed

    @property
    def compactions(self) -> int:
        """How many times the heap was compacted (a diagnostics metric)."""
        return self._compactions

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` microseconds from now."""
        # "not >=" refuses a NaN delay too (see schedule_at).
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} us from now")
        seq = self._seq
        self._seq = seq + 1
        event = Event((self.now + delay, seq, callback, args, self))
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        # Written as "not >=" so a NaN, which compares false both ways
        # and would silently break heap order, is refused as well.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event((time, seq, callback, args, self))
        heapq.heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for an event still in the heap."""
        self._cancelled_in_heap += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (lazy-cancel reaping).
        In place: a running loop holds the list itself."""
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic measurements line
        up across runs.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        horizon = _FOREVER if until is None else until
        limit = _FOREVER if max_events is None else max_events
        executed = 0
        try:
            while queue:
                head = queue[0]
                if head[2] is None:
                    heappop(queue)
                    self._cancelled_in_heap -= 1
                    continue
                if head[0] > horizon or executed >= limit:
                    break
                heappop(queue)
                head[4] = None
                self.now = head[0]
                executed += 1
                head[2](*head[3])
            if until is not None and self.now < until:
                self.now = until
        except BaseException as exc:
            # Flight-recorder hook: one try/except around the whole run,
            # never per event.  The recorder folds the dying run's context
            # (the count flushed first, so it includes the event that
            # raised) into its kernel ring, and auto-dumps if configured,
            # before the exception continues up.
            self._events_executed += executed
            executed = 0
            recorder = self.recorder
            if recorder is not None:
                recorder.on_kernel_exception(self, exc)
            raise
        finally:
            self._events_executed += executed
            self._running = False

    # ------------------------------------------------------------------
    # instrumented execution (installed per-instance by the digest and
    # profiler setters via _refresh_instrumentation)
    # ------------------------------------------------------------------
    def _run_instrumented(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """:meth:`run` plus digest/profiler hooks per event."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        digest = self._digest
        profiler = self._profiler
        queue = self._queue
        heappop = heapq.heappop
        horizon = _FOREVER if until is None else until
        limit = _FOREVER if max_events is None else max_events
        executed = 0
        try:
            while queue:
                head = queue[0]
                if head[2] is None:
                    heappop(queue)
                    self._cancelled_in_heap -= 1
                    continue
                if head[0] > horizon or executed >= limit:
                    break
                heappop(queue)
                head[4] = None
                self.now = head[0]
                executed += 1
                if digest is not None:
                    digest.observe(head[0], head[1], head[2])
                if profiler is None:
                    head[2](*head[3])
                else:
                    profiler.dispatch(head[2], head[3])
            if until is not None and self.now < until:
                self.now = until
        except BaseException as exc:
            self._events_executed += executed
            executed = 0
            recorder = self.recorder
            if recorder is not None:
                recorder.on_kernel_exception(self, exc)
            raise
        finally:
            self._events_executed += executed
            self._running = False

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return len(self._queue) - self._cancelled_in_heap
