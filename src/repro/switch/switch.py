"""The assembled AN2 switch: line cards, crossbar, and software agents.

This is the event-driven switch used in the network-level experiments.
It wires together every mechanism of the paper:

- **control plane** (line-card software, modelled with a per-message
  processing delay): port monitors + skeptics (section 2), the
  reconfiguration agent (section 2), the signaling agent (section 2),
  circuit paging (an extension), and local reroute on every DEAD verdict
  (the setup's own next-hop decision, ``signaling.choose_output``, with
  the dead cable blocked; a circuit that cannot move, guaranteed ones
  included, is broken and its cells dropped and counted),
- **best-effort data plane** (section 3): per-VC random-access input
  buffers, parallel iterative matching across the crossbar every cell
  slot, and credit-based flow control (section 5) with periodic
  resynchronization,
- **guaranteed data plane** (section 4): a frame schedule revised with
  Slepian-Duguid insertions on reservation changes; scheduled slots carry
  guaranteed cells first and fall back to best-effort traffic when the
  reserved circuit has no cell present.

The slot clock is a per-switch :class:`~repro.sim.clock.DriftingClock`,
so the asynchronous-network analyses (buffer occupancy vs clock skew, E8)
exercise real rate differences between neighbors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro._types import NodeId, VcId
from repro.constants import (
    AN2_PIM_ITERATIONS,
    FAST_CELL_TIME_US,
    FRAME_SLOTS,
    PING_REPLY_DELAY_US,
)
from repro.core.flowcontrol.credits import CreditError
from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.core.guaranteed.distributed import (
    DistributedAdmissionAgent,
    ReserveConfirm,
    ReserveReject,
    ReserveRelease,
    ReserveRequest,
)
from repro.core.guaranteed.frames import FrameSchedule
from repro.core.guaranteed.nested_frames import NestedFrameSchedule
from repro.core.guaranteed.slepian_duguid import insert_reservation, remove_cell
from repro.core.matching.bitmask import BitmaskPim, bits_of
from repro.core.reconfig.monitor import PingPayload
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.signaling import (
    PageOut,
    SetupRequest,
    SignalingAgent,
    choose_output,
)
from repro.fastpath.driver import FabricSlotDriver
from repro.net.cell import (
    BEST_EFFORT, CREDIT, DATA, GUARANTEED, PING, PING_ACK, RECONFIG,
    SIGNALING, Cell, TrafficClass,
)
from repro.net.port import Port
from repro.sim.kernel import Simulator
from repro.sim.clock import DriftingClock
from repro.sim.random import RandomStreams
from repro.switch.control import SwitchNode, SwitchNodeConfig
from repro.switch.crossbar import Crossbar
from repro.switch.linecard import LineCard


#: best-effort flow control disciplines ``SwitchConfig.flow_control``
#: may name.
FLOW_CONTROL_MODES = ("credits", "drop")


@dataclass(kw_only=True)
class SwitchConfig(SwitchNodeConfig):
    """Tunable parameters of one switch (defaults follow the paper).
    A ``Network``'s hosts read the link-level ones from here too."""

    n_ports: int = 16
    frame_slots: int = FRAME_SLOTS
    #: per-VC credit allocation; ``None`` derives it from each link's
    #: round trip (section 5's sizing rule).
    credit_allocation: Optional[int] = None
    #: period of credit resynchronization; 0 disables it.
    resync_interval_us: float = 0.0
    #: best-effort flow control: "credits" (AN2, lossless) or "drop"
    #: (section 5's third option: "drop messages when buffer capacity is
    #: exceeded.  If messages are dropped, they are typically
    #: retransmitted by higher levels of the system").
    flow_control: str = "credits"
    #: enable the section-2 extensions.
    enable_paging: bool = False
    paging_idle_us: float = 50_000.0
    #: section-4 extension: restrict guaranteed-cell re-ordering to
    #: subframes of this many slots (must divide ``frame_slots``);
    #: ``None`` keeps the flat frame schedule.
    nested_subframe_slots: Optional[int] = None
    clock_drift_ppm: float = 0.0

    AT_LEAST_ONE = SwitchNodeConfig.AT_LEAST_ONE + (
        "n_ports", "nested_subframe_slots", "frame_slots", "credit_allocation",
    )
    NON_NEGATIVE = SwitchNodeConfig.NON_NEGATIVE + (
        "resync_interval_us", "paging_idle_us",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.flow_control not in FLOW_CONTROL_MODES:
            raise ValueError(
                f"SwitchConfig.flow_control={self.flow_control!r} must be "
                f"one of {FLOW_CONTROL_MODES}"
            )
        subframe = self.nested_subframe_slots
        if subframe is not None and self.frame_slots % subframe:
            raise ValueError(
                f"SwitchConfig.nested_subframe_slots={subframe!r} must "
                f"divide frame_slots={self.frame_slots}"
            )


@dataclass
class SwitchStats:
    cells_forwarded: int = 0
    guaranteed_forwarded: int = 0
    cells_dropped: int = 0
    pending_buffered: int = 0
    credits_sent: int = 0
    page_outs: int = 0
    page_ins: int = 0
    reroutes: int = 0
    broken_circuits: int = 0
    #: matched pairs that moved no cell: an input served earlier in the
    #: same slot put its credit cell on the output's wire first.
    wasted_matches: int = 0
    #: always 0: no orientation is ever repaired in place; kept because
    #: the e2e benchmark's workloads read it by attribute.
    route_installs_incremental: int = 0
    #: RouteComputers this switch built; switches that complete the same
    #: (view, initiator) share the first one's, so the sum over an
    #: installation is the number of distinct pairs.
    route_installs_full: int = 0
    #: ticks that could move nothing: no reserved cell went and no
    #: wanted output's wire was free.
    empty_ticks: int = 0
    per_output_forwarded: Dict[int, int] = field(default_factory=dict)


class AN2Switch(SwitchNode):
    """A 16-port AN2 switch in the event-driven network model.

    Methods the kernel dispatches, or that the end-to-end benchmark
    names by path, are defined on this class even where the body only
    calls :class:`SwitchNode`'s: run digests and span tables name an
    event by its callback's qualified name.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        config: Optional[SwitchConfig] = None,
        n_ports: Optional[int] = None,
        registry=None,
        route_computers=None,
        slot_driver: Optional[FabricSlotDriver] = None,
    ) -> None:
        super().__init__(
            sim, node_id, streams,
            config if config is not None else SwitchConfig(), n_ports,
            route_computers=route_computers,
        )
        ports = self.n_ports
        # Line-card software answers a ping and handles a reconfiguration
        # or signalling message this long after the cell arrives.
        self.cell_delay_us = {
            PING: PING_REPLY_DELAY_US,
            RECONFIG: self.config.control_delay_us,
            SIGNALING: self.config.control_delay_us,
        }
        self.clock = DriftingClock(sim, drift_ppm=self.config.clock_drift_ppm)
        self.cards: List[LineCard] = [
            LineCard(
                port,
                CreditEndpoint(
                    sim, port, self.config,
                    on_window=partial(self._window_moved, port.index),
                ),
            )
            for port in self.ports
        ]
        #: by port index, as on a Host: checkers walk both kinds one way.
        self.credits = [card.credits for card in self.cards]
        #: owns the request matrix: input ``i`` requests output ``o`` iff
        #: card ``i`` holds a circuit ready to send to ``o`` (a cell
        #: queued and, in credit mode, a positive balance).  Kept current
        #: by :meth:`_refresh` instead of rebuilt every slot.
        self.crossbar = Crossbar(
            ports,
            BitmaskPim(
                ports,
                iterations=AN2_PIM_ITERATIONS,
                rng=streams.stream(f"{node_id}.pim"),
            ),
            probes=(
                registry.node(f"switch.{node_id}.crossbar")
                if registry is not None
                else None
            ),
        )
        if self.config.nested_subframe_slots is not None:
            self.frame_schedule: object = NestedFrameSchedule(
                ports,
                frame_slots=self.config.frame_slots,
                subframe_slots=self.config.nested_subframe_slots,
            )
        else:
            self.frame_schedule = FrameSchedule(ports, self.config.frame_slots)
        self.signaling = SignalingAgent(node_id, transport=self)
        self.admission = DistributedAdmissionAgent(self)
        self.stats = SwitchStats()
        self._vc_in_port: Dict[VcId, int] = {}
        #: Half a slot of slack: the transmitter's oscillator drives the
        #: link in real hardware, so a switch whose clock runs a few ppm
        #: fast must not see its own back-to-back slots as "link busy";
        #: the link model still enforces the true line rate.
        self._slack = 0.5 * FAST_CELL_TIME_US
        self._credit_mode = self.config.flow_control == "credits"
        #: ticks made plus, on the wave, slots sat out parked: the frame
        #: position.  Short of :attr:`slot_index` while parked.
        self._slot_index = 0
        #: a tick is coming at the next slot boundary (not set while
        #: parked on the wave, so a kick then goes through).
        self._tick_scheduled = False
        #: while parked on the wave: ``crossbar.want`` as it parked
        #: (:meth:`_nudge`); ``None`` otherwise.
        self._parked_want: Optional[int] = None
        #: cells in all VC and guaranteed queues of all cards.
        self._queued = 0
        #: the wave slot ticks ride while the clock is drift-free: the
        #: Network's shared one or, built alone, one of its own; the one
        #: they ride now is ``_slot_driver`` (:meth:`_ride_clock`).
        self._fabric_wave = slot_driver or FabricSlotDriver(
            sim, FAST_CELL_TIME_US
        )
        self._fabric_wave.adopt(self)
        self._ride_clock()
        if registry is not None:
            # Re-pointed at the epoch's (shared) RouteComputer on every
            # reconfiguration.
            self._routing_probes = registry.node(f"switch.{node_id}.routing")
            self._register_probes(registry.node(f"switch.{node_id}"))

    def _register_probes(self, probes) -> None:
        """Expose the plain-int stats as registry gauges (snapshot-time
        reads; the forwarding hot path is untouched)."""
        stats = self.stats
        probes.gauge("cells_forwarded", lambda: stats.cells_forwarded)
        probes.gauge("guaranteed_forwarded", lambda: stats.guaranteed_forwarded)
        probes.gauge("cells_dropped", lambda: stats.cells_dropped)
        probes.gauge("pending_buffered", lambda: stats.pending_buffered)
        probes.gauge("credits_sent", lambda: stats.credits_sent)
        probes.gauge("reroutes", lambda: stats.reroutes)
        probes.gauge("broken_circuits", lambda: stats.broken_circuits)
        probes.gauge("wasted_matches", lambda: stats.wasted_matches)
        probes.gauge("empty_ticks", lambda: stats.empty_ticks)
        probes.gauge("buffered_cells", self.buffered_cells)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Boot the switch: monitors, the initial reconfiguration and
        (if configured) periodic credit resynchronization."""
        if self._started:
            return
        super().start()
        if self.config.resync_interval_us > 0:
            self.sim.schedule(
                self.config.resync_interval_us, self._resync_tick
            )

    def _boot_trigger(self) -> None:
        self.reconfig.trigger()

    def _on_verdict(
        self, port_index: int, verdict: LinkVerdict, now: float
    ) -> None:
        super()._on_verdict(port_index, verdict, now)
        if verdict is LinkVerdict.DEAD:
            self.sim.schedule(
                self.config.control_delay_us, self._reroute_port, port_index
            )
        elif verdict is LinkVerdict.WORKING:
            # The cable is back: circuits broken on it carry cells again.
            for card in self.cards:
                for entry in card.routing_table.entries():
                    if entry.out_port == port_index:
                        entry.broken = False

    def _on_topology_ready(self, value) -> None:
        if super()._on_topology_ready(value):
            self.stats.route_installs_full += 1
        if self._route_computer is None:
            return
        # A detour that was illegal under the old up*/down* tree may be
        # legal under the new one: retry circuits still pointed at dead
        # ports.
        self.sim.schedule(
            self.config.control_delay_us, self._repair_broken_circuits
        )

    # ==================================================================
    # SignalingTransport interface
    # ==================================================================
    def install_circuit(
        self, vc: VcId, in_port: int, out_port: int, request: SetupRequest,
        cells_per_frame: int = 0,
    ) -> None:
        """Install the routing entry; a guaranteed circuit names the
        frame slots reserved for it at (``in_port``, ``out_port``)."""
        card = self.cards[in_port]
        card.routing_table.install(
            vc, out_port, request, self.sim.now
        ).cells_per_frame = cells_per_frame
        card.routing_table.paged.pop(vc, None)
        self._vc_in_port[vc] = in_port
        if request.traffic_class is TrafficClass.BEST_EFFORT:
            card.credits.pool(vc)
            self.cards[out_port].credits.open_window(vc)
            self._refresh_output(out_port, vc)
        entry = card.routing_table.lookup(vc)
        assert entry is not None
        for cell in card.routing_table.take_pending(vc):
            self._enqueue(card, entry, cell)
        self._kick()

    def remove_circuit(self, vc: VcId) -> Optional[int]:
        """Free the circuit's state on its input and output cards, its
        frame slots included; returns the out port released (``None``
        when the circuit or its routing entry is already gone)."""
        in_port = self._vc_in_port.pop(vc, None)
        if in_port is None:
            return None
        card = self.cards[in_port]
        entry = card.routing_table.lookup(vc)
        # A guaranteed cell still waiting for its frame slot has none
        # once the reservation goes: it is discarded with the circuit.
        discarded = 0 if entry is None else len(
            card.guaranteed_queues.drop_vc(entry.out_port, vc)
        )
        self.release_reservation(in_port, vc)
        discarded += card.release_vc(vc)
        self.stats.cells_dropped += discarded
        self._queued -= discarded
        self._forget(card, vc)
        if discarded:
            self._kick()  # the queue that kept this switch armed may be gone
        if entry is None:
            return None
        out_port = entry.out_port
        self.cards[out_port].upstream.pop(vc, None)
        self._refresh_output(out_port, vc)
        return out_port

    def send_signaling(self, port_index: int, message) -> None:
        self.ports[port_index].send(
            Cell(1, SIGNALING, BEST_EFFORT, message)
        )

    # ==================================================================
    # guaranteed reservations (driven by bandwidth central)
    # ==================================================================
    def add_reservation(
        self, in_port: int, out_port: int, cells_per_frame: int
    ) -> int:
        """Revise the frame schedule for a new reservation; returns the
        total Slepian-Duguid displacements performed."""
        if isinstance(self.frame_schedule, NestedFrameSchedule):
            moves = self.frame_schedule.reserve(
                in_port, out_port, cells_per_frame
            )
            self._kick()
            return moves
        traces = insert_reservation(
            self.frame_schedule, in_port, out_port, cells_per_frame
        )
        self._kick()
        return sum(t.displacements for t in traces)

    def release_reservation(self, in_port: int, vc: VcId) -> None:
        """Free the frame slots circuit ``vc`` (arriving on ``in_port``)
        was installed with, once: its entry forgets them."""
        entry = self.cards[in_port].routing_table.lookup(vc)
        if entry is not None and entry.cells_per_frame:
            cells, entry.cells_per_frame = entry.cells_per_frame, 0
            self.remove_reservation(in_port, entry.out_port, cells)

    def remove_reservation(
        self, in_port: int, out_port: int, cells_per_frame: int
    ) -> None:
        if isinstance(self.frame_schedule, NestedFrameSchedule):
            self.frame_schedule.release(in_port, out_port, cells_per_frame)
        else:
            for _ in range(cells_per_frame):
                remove_cell(self.frame_schedule, in_port, out_port)
        # A reservation keeps its switch armed, so this one is: the kick
        # un-parks it to notice that its last reservation may be gone.
        self._kick()

    # ==================================================================
    # receive path
    # ==================================================================
    def on_cell(self, port: Port, cell: Cell) -> None:
        """Handle a cell; a control cell's processing delay
        (:attr:`cell_delay_us`) has already passed on the wire."""
        kind = cell.kind
        if kind is DATA:
            self._accept_data(port.index, cell)
        elif kind is CREDIT:
            self._accept_credit(port.index, cell)
        elif kind is PING:
            self._reply_ping(port.index, cell.payload)
        elif kind is PING_ACK:
            self._accept_ping_ack(port.index, cell.payload)
        elif kind is RECONFIG:
            self._handle_reconfig(port.index, cell.payload)
        elif kind is SIGNALING:
            self._handle_signaling(port.index, cell.payload)
        else:
            raise ValueError(f"switch cannot handle cell kind {kind}")

    def _reply_ping(self, port_index: int, payload: PingPayload) -> None:
        self._send_ping_ack(port_index, payload)

    def _handle_reconfig(self, port_index: int, message) -> None:
        self.reconfig.handle(port_index, message)

    def _handle_signaling(self, port_index: int, message) -> None:
        if isinstance(message, PageOut):
            self._handle_page_out(port_index, message)
        elif isinstance(
            message,
            (ReserveRequest, ReserveConfirm, ReserveReject, ReserveRelease),
        ):
            self.admission.handle(port_index, message)
        else:
            self.signaling.handle(port_index, message)

    # ------------------------------------------------------------------
    def _accept_data(self, in_port: int, cell: Cell) -> None:
        card = self.cards[in_port]
        vc = cell.vc
        best_effort = cell.traffic_class is BEST_EFFORT
        if best_effort:
            try:
                (card.downstream.get(vc) or card.credits.pool(vc)).receive()
            except CreditError:
                # A correct upstream never overflows us; a buggy or
                # byzantine one loses the cell (counted, not crashed).
                card.cells_dropped += 1
                self.stats.cells_dropped += 1
                if cell.trace_ctx is not None:
                    cell.trace_ctx.record(
                        self.sim.now, self.node_id.label, "drop",
                        in_port=in_port, reason="overflow",
                    )
                return
        entry = card.routing_table.lookup(vc)
        if entry is None:
            if self.config.enable_paging and vc in card.routing_table.paged:
                self._page_in(in_port, vc)
            if not card.routing_table.buffer_pending(vc, cell):
                self.stats.cells_dropped += 1
                # The buffer the cell occupied is freed again.
                state = card.downstream.get(vc)
                if state is not None and best_effort:
                    state.free()
            else:
                self.stats.pending_buffered += 1
            return
        if entry.broken:
            self._drop_stranded(card, vc, [cell])
            return
        self._enqueue(card, entry, cell)
        if best_effort:
            self._nudge()
        else:
            self._kick()

    def _enqueue(self, card: LineCard, entry, cell: Cell) -> None:
        entry.last_activity = self.sim.now
        if cell.trace_ctx is not None:
            cell.trace_ctx.record(
                self.sim.now, self.node_id.label, "voq.enqueue",
                in_port=card.index, out_port=entry.out_port,
            )
        if cell.traffic_class is GUARANTEED:
            card.guaranteed_queues.push(entry.out_port, cell)
            self._queued += 1
        else:
            if card.vc_queues.push(entry.out_port, cell.vc, cell):
                self._refresh(card, entry.out_port, cell.vc)
            self._queued += 1

    def _refresh(self, card: LineCard, out_port: int, vc: VcId) -> None:
        """Re-derive whether ``vc`` on ``card`` can be sent to
        ``out_port`` and bring the crossbar's request in step.
        Idempotent; called after every event that can flip the answer (cell queued
        or served, credit granted, consumed or resynchronized, circuit
        installed, torn down, paged out or rerouted)."""
        sendable = True
        if self._credit_mode:
            upstream = self.cards[out_port].upstream.get(vc)
            sendable = upstream is not None and upstream.balance > 0
        if card.vc_queues.set_ready(out_port, vc, sendable):
            self.crossbar.request(card.index, out_port)
        else:
            self.crossbar.withdraw(card.index, out_port)

    def _accept_credit(self, port_index: int, cell: Cell) -> None:
        self.cards[port_index].credits.accept(cell)

    def _window_moved(
        self, out_port: int, vc: VcId, crossed_zero: bool
    ) -> None:
        """A credit cell moved the balance ``vc`` draws on at
        ``out_port``: a credit arrived, or a resync reply corrected it
        (up *or* down).  Only a move across zero can change a request
        bit, so a move that does not leaves an armed switch as it is;
        an unarmed one is still kicked (its tick moves nothing: one
        wave event the event-sparse data plane may drop)."""
        if crossed_zero:
            self._refresh_output(out_port, vc)
        self._nudge()

    def _forget(self, card: LineCard, vc: VcId) -> None:
        """``vc`` was drained from ``card``: drop the request bits it
        alone was holding up, whichever outputs its cells waited for."""
        for out_port in bits_of(self.crossbar.rows[card.index]):
            self._refresh(card, out_port, vc)

    def _refresh_output(self, out_port: int, vc: VcId) -> None:
        """:meth:`_refresh` from the output side, where credits arrive.
        Every card holding cells of ``vc`` shares that one balance:
        normally one card, two while a circuit rerouted upstream comes
        back in through another port."""
        for card in self.cards:
            # Has the card a queue (possibly empty now) for vc here?
            if vc in card.vc_queues._queues.get(out_port, ()):
                self._refresh(card, out_port, vc)

    # ==================================================================
    # crossbar loop
    # ==================================================================
    def _kick(self) -> None:
        """Tick at the next slot boundary.  Every edge that can make a
        tick useful (a guaranteed cell in, a circuit or reservation
        installed, a reroute) or end the arming (the last reservation or
        queued cell removed) calls this; on a switch parked on its wave
        (:meth:`_rearm`) it is what un-parks it.  Best-effort cells and
        credits go through :meth:`_nudge`."""
        if self._tick_scheduled:
            return
        self._tick_scheduled = True
        self._slot_driver.request_tick(self)

    def _nudge(self) -> None:
        """:meth:`_kick` for a best-effort cell in or a credit moved: a
        switch parked on its wave stays parked unless ``crossbar.want``
        gained an output it parked without.  Exact: its wake was worked
        out over a superset of today's wanted outputs, and a wire's
        ``next_free`` only grows, so no wanted wire falls free before
        that wake; the edge added no guaranteed cell and no frame slot."""
        if self._tick_scheduled:
            return
        parked_want = self._parked_want
        if parked_want is None or self.crossbar.want & ~parked_want:
            self._kick()

    def _slot_tick(self) -> None:
        self._tick_scheduled = False
        self._parked_want = None
        slot_index = self._slot_index
        self._slot_index = slot_index + 1
        now = self.sim.now
        slack = self._slack

        ports = self.ports
        cards = self.cards
        pre_matched: Dict[int, int] = {}
        used_outputs = 0
        reserved = self.frame_schedule.total_reserved()
        if reserved:
            for in_port, out_port in self.frame_schedule.slot_view(
                slot_index % self.config.frame_slots
            ).items():
                if not ports[out_port].can_transmit_at(now, slack=slack):
                    continue
                cell = cards[in_port].guaranteed_queues.pop(out_port)
                if cell is None:
                    continue  # unused reserved slot: free for best effort
                self._queued -= 1
                self._transmit(out_port, cell, guaranteed=True)
                pre_matched[in_port] = out_port
                used_outputs |= 1 << out_port

        # Outputs some card wants, that no reservation took this slot,
        # and whose wire is free: only those are worth asking about.
        idle = 0
        want = self.crossbar.want & ~used_outputs
        if want:
            for out_port in bits_of(want):
                if ports[out_port].can_transmit_at(now, slack):
                    idle |= 1 << out_port

        # A slot that only moves reserved cells needs no matcher: with no
        # idle output the matching is the reservations themselves.
        if idle:
            result = self.crossbar.schedule(pre_matched, idle)
            credit_mode = self._credit_mode
            for in_port, out_port in result.matching.items():
                if in_port in pre_matched:
                    continue
                if not ports[out_port].can_transmit_at(now, slack):
                    # An input served earlier in this loop returned its
                    # credit cell through this very port.
                    self.stats.wasted_matches += 1
                    continue
                card = cards[in_port]
                vc, cell = card.vc_queues.pop(out_port)
                self._queued -= 1
                ran_dry = False
                if credit_mode:
                    upstream = cards[out_port].upstream[vc]
                    upstream.consume()
                    ran_dry = upstream.balance == 0
                if ran_dry:
                    self._refresh_output(out_port, vc)
                elif not card.vc_queues.requests(out_port):
                    self._refresh(card, out_port, vc)  # last ready cell
                if vc in card.downstream:
                    self._send_credit(in_port, vc)
                entry = card.routing_table.lookup(vc)
                if entry is not None:
                    entry.cells_forwarded += 1
                    entry.last_activity = now
                self._transmit(out_port, cell, guaranteed=False)
        elif not pre_matched:
            self.stats.empty_ticks += 1

        # Stay armed while any work (or any reservation) remains.
        if reserved or self._queued:
            self._rearm(now, slack, reserved)

    def _rearm(self, now: float, slack: float, reserved: int) -> None:
        """Arm the tick after this one: the first slot of its wave in
        which a cell can move, by the tests :meth:`_slot_tick` itself
        applies: (i) some wanted output's wire is free, (ii) the frame
        serves an (input, output) pair with a guaranteed cell queued;
        with neither in sight the switch parks until an edge kicks it."""
        driver = self._slot_driver
        waves: Optional[int] = None
        want = self.crossbar.want
        if want:
            # Wave times add up as the kernel's ``now + delay`` does, so
            # each comparison is the one the tick at that wave will make.
            slot_time = driver.slot_time_us
            wave_at = now + slot_time
            ports = self.ports
            free_at = None
            for out_port in bits_of(want):
                # ``None``: the wire is down.  Its restore kicks this
                # switch (:meth:`wire_restored`), its DEAD verdict moves
                # or drops what waits for it.
                port_free_at = ports[out_port].free_at()
                if port_free_at is not None and (
                    free_at is None or port_free_at < free_at
                ):
                    free_at = port_free_at
                    if free_at <= wave_at + slack:
                        break
            if free_at is not None:
                waves = 1
                while free_at > wave_at + slack:
                    wave_at += slot_time
                    waves += 1
        if reserved and self._queued and waves != 1:
            frame_slots = self.config.frame_slots
            next_slot = self._slot_index % frame_slots
            schedule = self.frame_schedule
            ports = self.ports
            for card in self.cards:
                for out_port in card.guaranteed_queues.waiting():
                    if not ports[out_port].up:
                        continue
                    slot = schedule.next_slot(card.index, out_port, next_slot)
                    if slot is not None:
                        until = (slot - next_slot) % frame_slots + 1
                        if waves is None or until < waves:
                            waves = until
        if driver.park(self, waves):
            self._parked_want = want
        else:
            self._tick_scheduled = True

    def _transmit(self, out_port: int, cell: Cell, guaranteed: bool) -> None:
        if cell.trace_ctx is not None:
            cell.trace_ctx.record(
                self.sim.now, self.node_id.label, "grant",
                out_port=out_port, guaranteed=guaranteed,
            )
        self.ports[out_port].send(cell)
        self.stats.cells_forwarded += 1
        if guaranteed:
            self.stats.guaranteed_forwarded += 1
        self.stats.per_output_forwarded[out_port] = (
            self.stats.per_output_forwarded.get(out_port, 0) + 1
        )
        self.cards[out_port].cells_forwarded += 1

    def _send_credit(self, in_port: int, vc: VcId) -> None:
        """The buffer a cell of ``vc`` held on ``in_port`` is empty
        again: count it and (credit mode) return one credit upstream."""
        if self.cards[in_port].credits.free(vc):
            self.stats.credits_sent += 1

    def _resync_tick(self) -> None:
        """Periodic credit resynchronization: one round on every port."""
        for card in self.cards:
            card.credits.resync_round()
        self.sim.schedule(self.config.resync_interval_us, self._resync_tick)

    # ==================================================================
    # extensions: paging (section 2)
    # ==================================================================
    def page_out(self, vc: VcId) -> bool:
        """Release an idle circuit's resources, keeping enough state to
        page it back in; notifies the downstream switch."""
        in_port = self._vc_in_port.get(vc)
        if in_port is None:
            return False
        card = self.cards[in_port]
        entry = card.routing_table.lookup(vc)
        if entry is None:
            return False
        out_port = entry.out_port
        if entry.cells_per_frame or vc in card.vc_queues.queued_vcs(out_port):
            return False  # cells queued, or frame slots no page-in restores
        card.routing_table.paged[vc] = entry.request
        discarded = card.release_vc(vc)
        self._queued -= discarded
        self._forget(card, vc)
        self.cards[out_port].upstream.pop(vc, None)
        self._refresh_output(out_port, vc)
        self._vc_in_port.pop(vc, None)
        if discarded:
            self._kick()
        self.send_signaling(out_port, PageOut(vc))
        self.stats.page_outs += 1
        return True

    def _handle_page_out(self, in_port: int, message: PageOut) -> None:
        """The upstream switch paged this circuit out; cascade if it is
        idle here too."""
        card = self.cards[in_port]
        entry = card.routing_table.lookup(message.vc)
        if entry is None:
            return
        idle_for = self.sim.now - entry.last_activity
        if idle_for >= self.config.paging_idle_us:
            self.page_out(message.vc)

    def _page_in(self, in_port: int, vc: VcId) -> None:
        """A cell arrived for a paged-out circuit: regenerate its setup."""
        card = self.cards[in_port]
        request = card.routing_table.paged.pop(vc, None)
        if request is None:
            return
        self.stats.page_ins += 1
        self.sim.schedule(
            self.config.control_delay_us,
            self.signaling.handle,
            in_port,
            request,
        )

    def idle_circuits(self, older_than_us: float) -> List[VcId]:
        """Circuits with no activity for ``older_than_us`` (paging input)."""
        idle: List[VcId] = []
        now = self.sim.now
        for vc, in_port in self._vc_in_port.items():
            entry = self.cards[in_port].routing_table.lookup(vc)
            if entry is None:
                continue
            if now - entry.last_activity >= older_than_us:
                idle.append(vc)
        return idle

    # ==================================================================
    # local reroute (section 2): one fate for a circuit on a dead cable
    # ==================================================================
    def _reroute_port(self, dead_port: int) -> None:
        """Move every circuit leaving through a dead port, or break it.

        "the virtual circuit can be rerouted by sending a new circuit
        setup cell from the point where the path was broken."  Circuits
        whose path does not cross the failed link are untouched.
        """
        for card in self.cards:
            for entry in card.routing_table.entries():
                if entry.out_port == dead_port:
                    self._move_or_break(card, entry)

    def _repair_broken_circuits(self) -> None:
        """Retry local reroute for circuits still routed at dead ports."""
        for card in self.cards:
            for entry in card.routing_table.entries():
                monitor = self.monitors.get(entry.out_port)
                if monitor is None or monitor.verdict is LinkVerdict.WORKING:
                    continue
                self._move_or_break(card, entry)

    def _move_or_break(self, card: LineCard, entry) -> None:
        """Reroute a circuit off its dead output; one that cannot move
        (guaranteed, or no legal detour) is broken: the cells it holds
        for that output are dropped and counted, and so is every later
        one, until a repair moves it or the cable's WORKING verdict."""
        if self._reroute_entry(card, entry):
            entry.broken = False
            self.stats.reroutes += 1
            return
        if entry.broken:
            return
        entry.broken = True
        self.stats.broken_circuits += 1
        vc = entry.vc
        stranded = card.guaranteed_queues.drop_vc(
            entry.out_port, vc
        ) + card.vc_queues.drain_vc(vc)
        self._queued -= len(stranded)
        self._drop_stranded(card, vc, stranded)
        self._forget(card, vc)
        self._kick()  # the cells that kept this switch armed may be gone

    def _drop_stranded(
        self, card: LineCard, vc: VcId, cells: List[Cell]
    ) -> None:
        """Drop and count best-effort or guaranteed ``cells`` of a broken
        circuit, freeing their buffers as a forwarded cell's (a credit
        each goes back upstream)."""
        self.stats.cells_dropped += len(cells)
        credited = vc in card.downstream
        for cell in cells:
            if cell.trace_ctx is not None:
                cell.trace_ctx.record(
                    self.sim.now, self.node_id.label, "drop",
                    in_port=card.index, reason="broken",
                )
            if credited:
                self._send_credit(card.index, vc)

    def _reroute_entry(self, card: LineCard, entry) -> bool:
        """Point ``entry`` at a new output avoiding the cable it leaves
        on now and send the setup on from there.  Guaranteed circuits are
        refused: the new path has no frame reservation, so their
        re-admission is left to the application."""
        request = entry.request
        if request.traffic_class is TrafficClass.GUARANTEED:
            return False
        edge = self.edge_on_port(entry.out_port)
        decision = choose_output(
            self, self.node_id, request.destination, request.gone_down,
            frozenset() if edge is None else frozenset({edge}),
        )
        if decision is None:
            return False
        new_port, gone_down = decision
        vc = entry.vc
        # Move queued cells to the new output group.
        cells = card.vc_queues.drain_vc(vc)
        self._forget(card, vc)
        old_out = entry.out_port
        entry.out_port = new_port
        self.cards[old_out].upstream.pop(vc, None)
        self._refresh_output(old_out, vc)
        self.cards[new_port].credits.open_window(vc)
        for cell in cells:
            card.vc_queues.push(new_port, vc, cell)
        self._refresh_output(new_port, vc)
        forwarded = dataclasses.replace(
            request, gone_down=gone_down, hop_count=request.hop_count + 1
        )
        self.send_signaling(new_port, forwarded)
        self._kick()
        return True

    # ==================================================================
    @property
    def slot_index(self) -> int:
        """Cell slots this switch's clock has counted while armed: one
        per tick, and one per wave sat out parked."""
        return self._slot_index + self._slot_driver.sat_out(self)

    def wire_restored(self, port_index: int) -> None:
        """The cable on ``port_index`` works again.  A switch parked
        with cells for it had no wake for a dead wire: kick it."""
        if not self._slot_driver.is_parked(self):
            return
        if self._parked_want >> port_index & 1 or any(
            port_index in card.guaranteed_queues.waiting()
            for card in self.cards
        ):
            self._kick()

    def set_clock_drift(self, drift_ppm: float) -> None:
        """Step the local oscillator (a clock-drift fault).  The switch
        leaves its wave through one last tick on it, if one is due: a
        parked switch is kicked, so it re-plans on the new wave at its
        next slot, as one walked every slot would."""
        self.clock.set_drift(drift_ppm)
        if self._slot_driver.is_parked(self):
            self._kick()
        self._ride_clock()

    def _ride_clock(self) -> None:
        """Tick on the wave the local clock calls for: the drift-free
        one (section 4's synchronized network), or, while the
        oscillator drifts, a wave of this switch's own at its local slot
        time (the asynchronous network)."""
        fabric = self._fabric_wave
        if self.clock.drift_ppm == 0.0:
            fabric.ride(self)
        else:
            fabric.spawn(self, self.clock.global_delay(FAST_CELL_TIME_US))

    def buffered_cells(self) -> int:
        return self._queued

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AN2Switch {self.node_id} buf={self.buffered_cells()}>"
