"""The discrete-event simulation core.

A :class:`Simulator` owns a priority queue of timestamped events.  Running
the simulator pops events in time order and invokes their callbacks; each
callback may schedule further events.  Ties are broken by insertion order,
which makes runs deterministic for a fixed seed.

Time is a float number of microseconds.  Nothing in the kernel depends on
the unit, but the rest of the library adopts microseconds so that the
paper's constants can be written literally.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.conform.digest import RunDigest
    from repro.obs.flight import FlightRecorder
    from repro.obs.profiler import SubsystemProfiler
    from repro.obs.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled before they fire.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim, self._sim = self._sim, None
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


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
        self._now = 0.0
        #: heap of ``(time, seq, event)``: ``seq`` is unique, so heapq
        #: orders entries on the first two fields, in C, and never
        #: compares two events.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        self._live = 0  # queued, non-cancelled events (O(1) pending())
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._tracer: Optional["Tracer"] = None
        self._digest: Optional["RunDigest"] = None
        self._profiler: Optional["SubsystemProfiler"] = None
        #: optional :class:`~repro.obs.flight.FlightRecorder`.  A plain
        #: attribute, deliberately *not* part of the instrumentation
        #: swap: the recorder is never consulted per event, only when an
        #: exception escapes :meth:`run` (and by protocol code at its own
        #: transition points), so attaching one leaves the hot loop as
        #: the class-level bytecode.
        self.recorder: Optional["FlightRecorder"] = None

    # ------------------------------------------------------------------
    # instrumentation (tracing + run digest + profiling)
    # ------------------------------------------------------------------
    # Attaching a tracer, digest, or profiler swaps per-instance
    # instrumented implementations of step/run into the instance dict;
    # detaching all of them removes them so lookups fall back to the
    # class methods.  The uninstrumented bytecode therefore contains no
    # tracer/digest/profiler checks at all -- the disabled hot path is
    # the original hot path, byte for byte.
    def _refresh_instrumentation(self) -> None:
        if (
            self._tracer is not None
            or self._digest is not None
            or self._profiler is not None
        ):
            self.__dict__["step"] = self._step_instrumented
            self.__dict__["run"] = self._run_instrumented
        else:
            self.__dict__.pop("step", None)
            self.__dict__.pop("run", None)

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The attached :class:`~repro.obs.trace.Tracer`, or ``None``."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional["Tracer"]) -> None:
        self._tracer = tracer
        self._refresh_instrumentation()

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
    def profiler(self) -> Optional["SubsystemProfiler"]:
        """The attached :class:`~repro.obs.profiler.SubsystemProfiler`.

        While attached, every dispatched event is classified into a
        subsystem and counted (optionally wall-timed); counts are
        deterministic for a fixed seed, like the run digest.
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Optional["SubsystemProfiler"]) -> None:
        self._profiler = profiler
        self._refresh_instrumentation()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (a work metric)."""
        return self._events_executed

    @property
    def heap_size(self) -> int:
        """Entries in the heap, including not-yet-reaped cancelled ones."""
        return len(self._queue)

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
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        # Written as "not >=" so a NaN, which compares false both ways
        # and would silently break heap order, is refused as well.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        event = Event(time, seq, callback, args)
        event._sim = self
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for an event still in the heap."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (lazy-cancel reaping).
        In place: a running loop holds the list itself."""
        self._queue[:] = [e for e in self._queue if not e[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event._sim = None
            self._live -= 1
            self._now = event.time
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

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
        executed = 0
        try:
            while queue:
                head = queue[0][2]
                if head.cancelled:
                    heappop(queue)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and head.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                head._sim = None
                self._live -= 1
                self._now = head.time
                self._events_executed += 1
                executed += 1
                head.callback(*head.args)
            if until is not None and self._now < until:
                self._now = until
        except BaseException as exc:
            # Flight-recorder hook: one try/except around the whole run,
            # never per event.  The recorder folds the dying run's context
            # into its kernel ring (and auto-dumps if configured) before
            # the exception continues up.
            recorder = self.recorder
            if recorder is not None:
                recorder.on_kernel_exception(self, exc)
            raise
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # instrumented execution (installed per-instance by the tracer,
    # digest, and profiler setters via _refresh_instrumentation)
    # ------------------------------------------------------------------
    def _step_instrumented(self) -> bool:
        """:meth:`step` plus tracer/digest/profiler hooks per event."""
        tracer = self._tracer
        digest = self._digest
        profiler = self._profiler
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event._sim = None
            self._live -= 1
            self._now = event.time
            self._events_executed += 1
            if tracer is not None:
                tracer.emit(
                    event.time, "kernel", "sim", "event",
                    seq=event.seq,
                    callback=getattr(
                        event.callback, "__qualname__", repr(event.callback)
                    ),
                )
            if digest is not None:
                digest.observe(event.time, event.seq, event.callback)
            if profiler is None:
                event.callback(*event.args)
            else:
                profiler.dispatch(event.callback, event.args)
            return True
        return False

    def _run_instrumented(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """:meth:`run` plus tracer/digest/profiler hooks per event."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        tracer = self._tracer
        digest = self._digest
        profiler = self._profiler
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        try:
            while queue:
                head = queue[0][2]
                if head.cancelled:
                    heappop(queue)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and head.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                head._sim = None
                self._live -= 1
                self._now = head.time
                self._events_executed += 1
                executed += 1
                if tracer is not None:
                    tracer.emit(
                        head.time, "kernel", "sim", "event",
                        seq=head.seq,
                        callback=getattr(
                            head.callback, "__qualname__", repr(head.callback)
                        ),
                    )
                if digest is not None:
                    digest.observe(head.time, head.seq, head.callback)
                if profiler is None:
                    head.callback(*head.args)
                else:
                    profiler.dispatch(head.callback, head.args)
            if until is not None and self._now < until:
                self._now = until
        except BaseException as exc:
            recorder = self.recorder
            if recorder is not None:
                recorder.on_kernel_exception(self, exc)
            raise
        finally:
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if idle."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_in_heap -= 1
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return self._live
