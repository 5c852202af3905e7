"""Full-duplex point-to-point links.

Section 1: "data is transmitted between hosts through a sequence of
switches connected by full-duplex links".  A :class:`Link` joins two
:class:`~repro.net.port.Port` endpoints and models, per direction:

- serialization time (cell bits / link rate) with FIFO ordering,
- propagation latency (from cable length),
- failure state (a dead link delivers nothing), and
- a cell error rate for the intermittent faults the skeptic watches for.

A cell costs one kernel event: the link delivers it at its arrival plus
the receiving node's processing delay for the cell's kind
(:attr:`~repro.net.node.Node.cell_delay_us`; zero for data and credit
cells), and the node handles it inside that event.  Whether the cable
carried the cell is judged by its state at arrival; the drop filter
and the error draw are taken at delivery.

A quiet line costs no event at all: while both port monitors' ping
loops run in closed form (:mod:`repro.core.reconfig.monitor`), the link
folds their phantom pings and acks into the wire's horizon and the
counters, in time order, before anything reads or writes them.

Failure and error injection are first-class because the paper's headline
demo is "pulling the plug on an arbitrary switch" and the skeptic exists
precisely because "a faulty link may exhibit intermittent failures".
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.constants import CELL_BITS, FAST_LINK_BPS, PROPAGATION_US_PER_KM
from repro.net.cell import DATA, Cell, CellKind
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reconfig.monitor import PortMonitor
    from repro.net.port import Port

import random as _random_module


class LinkState(enum.Enum):
    """The reconfiguration algorithm's clean link abstraction (section 2)."""

    WORKING = "working"
    DEAD = "dead"


#: the hot paths test ``state is WORKING`` against this module global.
WORKING = LinkState.WORKING

_INF = float("inf")
_KINDS = len(CellKind)


class _Hook:
    """A link attribute whose setting puts quiet monitors back on the
    kernel (:meth:`Link._wake`): a phantom cell would skip the hook.
    The per-cell paths read the value stored as ``_<name>``."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.stored = "_" + name

    def __get__(self, link: Any, owner: Optional[type] = None) -> Any:
        return self if link is None else getattr(link, self.stored)

    def __set__(self, link: "Link", value: Any) -> None:
        link._wake()
        setattr(link, self.stored, value)


def counter(stored: str, line: Callable[[Any], Optional["Link"]]) -> property:
    """A read-only counter that phantom pings and acks advance: a read
    first folds the cable ``line(owner)`` up to now."""

    def read(owner: Any) -> int:
        link = line(owner)
        if link is not None:
            link.settle()
        return getattr(owner, stored)

    return property(read)


class Link:
    """A bidirectional link between two ports.

    Direction 0 carries cells from ``port_a`` to ``port_b``; direction 1
    the reverse.  Cells on one direction are delivered in FIFO order.
    """

    error_rate = _Hook()
    drop_filter = _Hook()
    cells_delivered = counter("_cells_delivered", lambda link: link)

    def __init__(
        self,
        sim: Simulator,
        port_a: "Port",
        port_b: "Port",
        length_km: float = 0.1,
        bps: float = FAST_LINK_BPS,
        rng: Optional[_random_module.Random] = None,
    ) -> None:
        if length_km < 0:
            raise ValueError(f"negative link length {length_km}")
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        #: this cable's component name in every record, journey hops and
        #: link state alike: ``link.s0.p1-s3.p0``.
        self.label = f"link.{port_a.label}-{port_b.label}"
        self.length_km = length_km
        self.bps = bps
        self.latency_us = length_km * PROPAGATION_US_PER_KM
        self.cell_time_us = CELL_BITS / bps * 1e6
        self.state = LinkState.WORKING
        #: the monitors pinging in direction 0 and 1; while their loops
        #: run in closed form, the pair, when its next phantom step is
        #: due, and the most backlog a transmit may leave (else inf).
        self._monitors: List[Optional["PortMonitor"]] = [None, None]
        self._quiet: Optional[Tuple["PortMonitor", "PortMonitor"]] = None
        self._fold_at = self._backlog_us = _INF
        #: when :attr:`state` last changed, and ``(time, state before)``
        #: of each change a cell still being delivered may have arrived
        #: before (see :meth:`_state_at`).
        self._changed_at = float("-inf")
        self._changes: List[Tuple[float, LinkState]] = []
        self._error_rate = 0.0
        #: targeted fault injection: when set, a delivered cell for which
        #: the predicate returns True is corrupted (dropped) regardless
        #: of ``error_rate``.  Tests use this to lose, e.g., only CREDIT
        #: cells, exercising the resynchronization machinery surgically.
        self._drop_filter: Optional[Callable[[Cell], bool]] = None
        # Without an explicit RNG, derive a per-link substream keyed by
        # the endpoint labels.  A shared Random(0) here would make every
        # link in the network draw *identical* error streams -- injected
        # errors perfectly correlated across links, which no real cable
        # plant exhibits and which defeats independent-fault experiments.
        self._rng = rng if rng is not None else self._default_rng()
        self._next_free = [0.0, 0.0]  # per-direction serialization horizon
        self._cells_delivered = 0
        self.cells_dropped = 0
        #: DATA-cell subset of ``cells_dropped`` -- user-visible loss.
        #: (Control cells die on dead links constantly: the monitors keep
        #: pinging; that is telemetry, not service loss.)
        self.data_cells_dropped = 0
        self.cells_corrupted = 0
        #: observers called with (link, new_state) on every state change;
        #: the link monitors on both endpoints subscribe here.
        self.state_observers: List[Callable[["Link", LinkState], None]] = []
        port_a.attach(self, 0)
        port_b.attach(self, 1)
        #: per direction, the receiving node's processing delay by kind,
        #: indexed by ``CellKind.index``.
        self._delays = ([0.0] * _KINDS, [0.0] * _KINDS)
        for table, node in zip(self._delays, (port_b.node, port_a.node)):
            for kind, delay in node.cell_delay_us.items():
                table[kind.index] = delay

    # ------------------------------------------------------------------
    def _default_rng(self) -> _random_module.Random:
        """A deterministic substream keyed by this link's endpoints.

        Mirrors the :class:`~repro.sim.random.RandomStreams` discipline
        (seed hashed with a stable name) so links built outside a
        :class:`~repro.net.network.Network` still get decorrelated,
        reproducible error streams.
        """
        name = f"link/{self.port_a.label}/{self.port_b.label}"
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        return _random_module.Random(int.from_bytes(digest[:8], "big"))

    @property
    def working(self) -> bool:
        return self.state is LinkState.WORKING

    def other_port(self, port: "Port") -> "Port":
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError(f"{port!r} is not an endpoint of {self!r}")

    def next_free(self, direction: int) -> float:
        """Earliest time a new cell can start serializing in ``direction``."""
        if direction not in (0, 1):
            raise ValueError(f"bad direction {direction}")
        self.settle()
        return self._next_free[direction]

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(
        self, direction: int, cell: Cell, bits: Optional[int] = None
    ) -> None:
        """Serialize ``cell`` in ``direction`` (0: a->b, 1: b->a).

        ``bits`` overrides the serialization length -- AN1 transmits
        variable-length packets rather than fixed cells, so its "cells"
        occupy the wire in proportion to their size.
        """
        if direction not in (0, 1):
            raise ValueError(f"bad direction {direction}")
        if self.state is not WORKING:
            self.cells_dropped += 1
            if cell.kind is DATA:
                self.data_cells_dropped += 1
            if cell.trace_ctx is not None:
                cell.trace_ctx.record(
                    self.sim.now, self.label, "wire.drop",
                    reason="dead",
                )
            return
        now = self.sim.now
        if self._fold_at <= now:
            self._fold(now)
        serialization = (
            self.cell_time_us if bits is None else bits / self.bps * 1e6
        )
        start = self._next_free[direction]
        if start < now:
            start = now
        departure = start + serialization
        self._next_free[direction] = departure
        if departure - now > self._backlog_us:
            self._wake()
        arrival = departure + self.latency_us
        kind = cell.kind
        self.sim.schedule_at(
            arrival if kind is DATA
            else arrival + self._delays[direction][kind.index],
            self._deliver, direction, cell, arrival,
        )

    def _deliver(self, direction: int, cell: Cell, arrival: float) -> None:
        """The cell's one event, at ``arrival`` plus the receiver's
        processing delay: judge the cable as it was at ``arrival``, then
        the drop filter and the error draw, then hand the cell over."""
        ctx = cell.trace_ctx
        if (
            self.state if self._changed_at <= arrival
            else self._state_at(arrival)
        ) is not WORKING:
            self.cells_dropped += 1
            if cell.kind is DATA:
                self.data_cells_dropped += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.label, "wire.drop",
                    reason="dead",
                )
            return
        if self._drop_filter is not None and self._drop_filter(cell):
            self.cells_corrupted += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.label, "wire.drop",
                    reason="filtered",
                )
            return
        if self._error_rate > 0 and self._rng.random() < self._error_rate:
            self.cells_corrupted += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.label, "wire.drop",
                    reason="error",
                )
            return
        self._cells_delivered += 1
        if ctx is not None:
            ctx.record(
                self.sim.now, self.label, "wire.arrive",
                direction=direction,
            )
        port = self.port_b if direction == 0 else self.port_a
        port._cells_received += 1
        port.node.on_cell(port, cell)

    # ------------------------------------------------------------------
    # the monitors' closed form
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Fold the phantom pings and acks due by now into the wire and
        the counters (nothing to do unless the line is quiet)."""
        now = self.sim.now
        if self._fold_at <= now:
            self._fold(now)

    def _fold(self, now: float) -> None:
        """Take the quiet line's phantom steps due by ``now`` in time
        order; at equal times a ping leaves before an ack leaves before
        an ack arrives, the order their eager events run in."""
        a, b = self._quiet
        while True:
            monitor = b if (b._due, b._phase) < (a._due, a._phase) else a
            if monitor._due > now:
                break
            monitor._step(self)
        self._fold_at = min(a._due, b._due)

    def _rest(self) -> None:
        """Run both monitors' loops in closed form if the line is quiet:
        WORKING, with no drop filter or error rate, and both
        monitors :meth:`~repro.core.reconfig.monitor.PortMonitor.can_rest`.
        A ping and its ack, each queued at most ``backlog`` behind real
        cells (which :meth:`transmit` then keeps to) and behind two
        phantom ones, must still beat the ack timeout."""
        a, b = self._monitors
        if (
            self._quiet is not None or a is None or b is None
            or self.state is not WORKING or self._error_rate
            or self._drop_filter
            or not (a.can_rest() and b.can_rest())
        ):
            return
        slowest = 2 * (self.cell_time_us + self.latency_us) + sum(
            map(sum, self._delays)
        )
        backlog = (
            min(a.ack_timeout_us, b.ack_timeout_us) - slowest
        ) / 4 - 2 * self.cell_time_us
        if backlog > 0 and max(self._next_free) - self.sim.now <= backlog:
            a.rest()
            b.rest()
            self._quiet = (a, b)
            self._backlog_us = backlog
            self._fold_at = min(a._due, b._due)

    def _wake(self) -> None:
        """Put a quiet line's monitors back on the kernel, standing as
        the eager loop would stand now."""
        quiet = self._quiet
        if quiet is not None:
            self.settle()
            self._quiet = None
            self._fold_at = self._backlog_us = _INF
            for monitor in quiet:
                monitor.wake()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Cut the link.  Every cell is judged by the link's state at its
        own arrival time: cells arriving while the link is down are
        lost, cells still in flight when it is restored get through, and
        a cell that arrived before the cut is handled even if the cut
        falls inside the receiver's processing delay.  A change at the
        very time of arrival counts as before it.
        """
        self._set_state(LinkState.DEAD)

    def restore(self) -> None:
        """Bring the link back up."""
        self._set_state(LinkState.WORKING)

    def _set_state(self, state: LinkState) -> None:
        if state is self.state:
            return
        self._wake()
        now = self.sim.now
        # A cell still to be delivered arrived at most the largest
        # processing delay ago; older changes cannot concern it.
        oldest = now - max((*self._delays[0], *self._delays[1]))
        changes = self._changes
        while changes and changes[0][0] < oldest:
            del changes[0]
        changes.append((now, self.state))
        self._changed_at = now
        self.state = state
        for observer in list(self.state_observers):
            observer(self, state)

    def _state_at(self, time: float) -> LinkState:
        """The state the link was in at ``time``, after every change made
        at or before it (``time`` no older than the largest processing
        delay)."""
        for changed_at, before in self._changes:
            if changed_at > time:
                return before
        return self.state

    def set_error_rate(self, rate: float) -> None:
        """Fraction of delivered cells silently corrupted (dropped)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"error rate {rate} out of [0, 1]")
        self.error_rate = rate

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.port_a.label}<->{self.port_b.label} "
            f"{self.state.value}>"
        )
