"""Full-duplex point-to-point links.

Section 1: "data is transmitted between hosts through a sequence of
switches connected by full-duplex links".  A :class:`Link` joins two
:class:`~repro.net.port.Port` endpoints and models, per direction:

- serialization time (cell bits / link rate) with FIFO ordering,
- propagation latency (from cable length),
- failure state (a dead link delivers nothing), and
- a cell error rate for the intermittent faults the skeptic watches for.

Failure and error injection are first-class because the paper's headline
demo is "pulling the plug on an arbitrary switch" and the skeptic exists
precisely because "a faulty link may exhibit intermittent failures".
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.constants import CELL_BITS, FAST_LINK_BPS, PROPAGATION_US_PER_KM
from repro.net.cell import Cell, CellKind
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import Port

import random as _random_module


class LinkState(enum.Enum):
    """The reconfiguration algorithm's clean link abstraction (section 2)."""

    WORKING = "working"
    DEAD = "dead"


class Link:
    """A bidirectional link between two ports.

    Direction 0 carries cells from ``port_a`` to ``port_b``; direction 1
    the reverse.  Cells on one direction are delivered in FIFO order.
    """

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
        self.length_km = length_km
        self.bps = bps
        self.latency_us = length_km * PROPAGATION_US_PER_KM
        self.cell_time_us = CELL_BITS / bps * 1e6
        self.state = LinkState.WORKING
        self.error_rate = 0.0
        #: targeted fault injection: when set, a delivered cell for which
        #: the predicate returns True is corrupted (dropped) regardless
        #: of ``error_rate``.  Tests use this to lose, e.g., only CREDIT
        #: cells, exercising the resynchronization machinery surgically.
        self.drop_filter: Optional[Callable[[Cell], bool]] = None
        # Without an explicit RNG, derive a per-link substream keyed by
        # the endpoint labels.  A shared Random(0) here would make every
        # link in the network draw *identical* error streams -- injected
        # errors perfectly correlated across links, which no real cable
        # plant exhibits and which defeats independent-fault experiments.
        self._rng = rng if rng is not None else self._default_rng()
        self._next_free = [0.0, 0.0]  # per-direction serialization horizon
        self.cells_delivered = 0
        self.cells_dropped = 0
        #: DATA-cell subset of ``cells_dropped`` -- user-visible loss.
        #: (Control cells die on dead links constantly: the monitors keep
        #: pinging; that is telemetry, not service loss.)
        self.data_cells_dropped = 0
        self.cells_corrupted = 0
        #: observers called with (link, new_state) on every state change;
        #: the link monitors on both endpoints subscribe here.
        self.state_observers: List[Callable[["Link", LinkState], None]] = []
        # --- loss-recovery solution hooks (repro.solutions) -----------
        # All three default to unset and then cost nothing: the hot path
        # is byte-identical and schedules the same kernel events, which
        # is what lets the do_nothing solution stay digest-identical to
        # a hook-free run.
        #: observers called as (link, direction, cell) when a cell
        #: actually starts serializing -- NOT when it is dropped at a
        #: dead transmitter.  The link_retx guard numbers cells here.
        self.tx_observers: List[Callable[["Link", int, Cell], None]] = []
        #: adjudication hook: called as (link, direction, cell, reason)
        #: whenever a cell is lost at delivery time, with reason one of
        #: "dead", "filtered", "error".  Observational -- the drop and
        #: its counters stand -- but a solution may schedule recovery
        #: work (a NACK/resend, an administrative repair) from here.
        self.adjudicator: Optional[
            Callable[["Link", int, Cell, str], None]
        ] = None
        #: delivery interposer: called as (link, direction, cell) after
        #: the delivery counters and trace records.  Returning True
        #: claims the cell -- the hook delivers it to the target port
        #: itself (possibly later, to restore FIFO order around a
        #: link-local retransmission); False lets the link deliver.
        self.deliver_hook: Optional[Callable[["Link", int, Cell], bool]] = None
        port_a.attach(self, 0)
        port_b.attach(self, 1)

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
        return self._next_free[direction]

    @property
    def round_trip_us(self) -> float:
        """Propagation + serialization round trip, used for credit sizing."""
        return 2 * (self.latency_us + self.cell_time_us)

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
        if not self.working:
            self.cells_dropped += 1
            if cell.kind is CellKind.DATA:
                self.data_cells_dropped += 1
            if cell.trace_ctx is not None:
                cell.trace_ctx.record(
                    self.sim.now, self.journey_label(), "wire.drop",
                    reason="dead",
                )
            return
        serialization = (
            self.cell_time_us if bits is None else bits / self.bps * 1e6
        )
        start = max(self.sim.now, self._next_free[direction])
        departure = start + serialization
        self._next_free[direction] = departure
        arrival = departure + self.latency_us
        if self.tx_observers:
            for observer in list(self.tx_observers):
                observer(self, direction, cell)
        self.sim.schedule_at(arrival, self._deliver, direction, cell)

    def journey_label(self) -> str:
        """Component name for this link's journey/flight records."""
        return f"link.{self.port_a.label}-{self.port_b.label}"

    def target_port(self, direction: int) -> "Port":
        """The receiving port for ``direction`` (0: port_b, 1: port_a)."""
        if direction not in (0, 1):
            raise ValueError(f"bad direction {direction}")
        return self.port_b if direction == 0 else self.port_a

    def _deliver(self, direction: int, cell: Cell) -> None:
        ctx = cell.trace_ctx
        if not self.working:
            self.cells_dropped += 1
            if cell.kind is CellKind.DATA:
                self.data_cells_dropped += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.journey_label(), "wire.drop",
                    reason="dead",
                )
            if self.adjudicator is not None:
                self.adjudicator(self, direction, cell, "dead")
            return
        if self.drop_filter is not None and self.drop_filter(cell):
            self.cells_corrupted += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.journey_label(), "wire.drop",
                    reason="filtered",
                )
            if self.adjudicator is not None:
                self.adjudicator(self, direction, cell, "filtered")
            return
        if self.error_rate > 0 and self._rng.random() < self.error_rate:
            self.cells_corrupted += 1
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.journey_label(), "wire.drop",
                    reason="error",
                )
            if self.adjudicator is not None:
                self.adjudicator(self, direction, cell, "error")
            return
        self.cells_delivered += 1
        if ctx is not None:
            ctx.record(
                self.sim.now, self.journey_label(), "wire.arrive",
                direction=direction,
            )
        if self.deliver_hook is not None and self.deliver_hook(
            self, direction, cell
        ):
            return
        self.target_port(direction).deliver(cell)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Cut the link.  Every cell's delivery event checks ``working``
        at its own arrival time: cells arriving while the link is down
        are lost, cells still in flight when it is restored get through.
        """
        self._set_state(LinkState.DEAD)

    def restore(self) -> None:
        """Bring the link back up."""
        self._set_state(LinkState.WORKING)

    def _set_state(self, state: LinkState) -> None:
        if state is self.state:
            return
        self.state = state
        for observer in list(self.state_observers):
            observer(self, state)

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
