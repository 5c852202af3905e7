"""The assembled AN2 switch: line cards, crossbar, and software agents.

This is the event-driven switch used in the network-level experiments.
It wires together every mechanism of the paper:

- **control plane** (line-card software, modelled with a per-message
  processing delay): port monitors + skeptics (section 2), the
  reconfiguration agent (section 2), the signaling agent (section 2), and
  the extension hooks -- circuit paging and local reroute,
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
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro._types import NodeId, VcId
from repro.constants import (
    AN2_PIM_ITERATIONS,
    FAST_CELL_TIME_US,
    FRAME_SLOTS,
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
from repro.core.reconfig.algorithm import ReconfigurationAgent
from repro.core.reconfig.monitor import (
    PingPayload,
    make_ack,
    start_port_monitor,
)
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.multicast import FanoutToken
from repro.core.routing.paths import RouteComputer
from repro.core.routing.signaling import (
    PageOut,
    SetupRequest,
    SignalingAgent,
    TeardownRequest,
)
from repro.net.cell import Cell, CellKind, TrafficClass
from repro.net.node import Node, validate_device_config
from repro.net.port import Port
from repro.net.topology import Edge, TopologyView
from repro.sim.kernel import Simulator
from repro.sim.clock import DriftingClock
from repro.sim.random import RandomStreams
from repro.switch.crossbar import Crossbar
from repro.switch.linecard import LineCard


#: best-effort flow control disciplines ``SwitchConfig.flow_control``
#: may name.
FLOW_CONTROL_MODES = ("credits", "drop")


@dataclass
class SwitchConfig:
    """Tunable parameters of one switch (defaults follow the paper).
    A ``Network``'s hosts read the link-level ones from here too."""

    n_ports: int = 16
    slot_time_us: float = FAST_CELL_TIME_US
    frame_slots: int = FRAME_SLOTS
    pim_iterations: int = AN2_PIM_ITERATIONS
    #: line-card software latency per control message.
    control_delay_us: float = 20.0
    #: hardware-assisted ping turnaround.
    ping_reply_delay_us: float = 1.0
    ping_interval_us: float = 1_000.0
    ack_timeout_us: float = 400.0
    miss_threshold: int = 3
    skeptic_base_wait_us: float = 10_000.0
    skeptic_max_level: int = 8
    skeptic_decay_us: float = 1_000_000.0
    #: delay after boot before triggering the initial reconfiguration
    #: (long enough for neighbor discovery pings to complete).
    boot_reconfig_delay_us: float = 3_500.0
    reconfig_watchdog_us: float = 100_000.0
    #: per-VC credit allocation; ``None`` derives it from each link's
    #: round trip (section 5's sizing rule).
    credit_allocation: Optional[int] = None
    pending_buffer_cap: int = 1024
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
    enable_local_reroute: bool = False
    #: section-4 extension: restrict guaranteed-cell re-ordering to
    #: subframes of this many slots (must divide ``frame_slots``);
    #: ``None`` keeps the flat frame schedule.
    nested_subframe_slots: Optional[int] = None
    clock_drift_ppm: float = 0.0

    def __post_init__(self) -> None:
        validate_device_config(
            self,
            positive=("slot_time_us",),
            at_least_one=(
                "n_ports", "pim_iterations", "nested_subframe_slots",
                "frame_slots", "credit_allocation",
            ),
            non_negative=(
                "control_delay_us",
                "boot_reconfig_delay_us",
                "reconfig_watchdog_us",
                "resync_interval_us",
                "paging_idle_us",
            ),
        )
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
    #: epoch route installs served by incremental delta recomputation vs
    #: from-scratch orientation rebuilds (see _on_topology_ready).
    route_installs_incremental: int = 0
    route_installs_full: int = 0
    per_output_forwarded: Dict[int, int] = field(default_factory=dict)


class AN2Switch(Node):
    """A 16-port AN2 switch in the event-driven network model."""

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        config: Optional[SwitchConfig] = None,
        n_ports: Optional[int] = None,
        registry=None,
    ) -> None:
        self.config = config if config is not None else SwitchConfig()
        ports = n_ports if n_ports is not None else self.config.n_ports
        super().__init__(sim, node_id, ports)
        self.streams = streams
        self.clock = DriftingClock(sim, drift_ppm=self.config.clock_drift_ppm)
        self.cards: List[LineCard] = [
            LineCard(
                port,
                CreditEndpoint(
                    sim, port, self.config, port.label,
                    on_window=partial(self._window_moved, port.index),
                ),
                pending_cap=self.config.pending_buffer_cap,
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
                iterations=self.config.pim_iterations,
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
        self.reconfig = ReconfigurationAgent(
            sim, node_id, transport=self, watchdog_us=self.config.reconfig_watchdog_us
        )
        self.reconfig.ready.subscribe(self._on_topology_ready)
        self.signaling = SignalingAgent(node_id, transport=self)
        self.admission = DistributedAdmissionAgent(self)
        self.stats = SwitchStats()
        self._route_computer: Optional[RouteComputer] = None
        self._vc_in_port: Dict[VcId, int] = {}
        #: ticks made plus, on the wave, slots sat out parked: the frame
        #: position.  Short of :attr:`slot_index` while parked.
        self._slot_index = 0
        #: a tick is coming at the next slot boundary (not set while
        #: parked on the wave, so a kick then goes through).
        self._tick_scheduled = False
        #: cells in all VC and guaranteed queues of all cards.
        self._queued = 0
        #: the Network's repro.fastpath.FabricSlotDriver once adopted;
        #: while the local clock is drift-free, slot ticks ride its wave.
        self._slot_driver = None
        self._started = False
        #: observers of verdict changes: callbacks (port_index, verdict).
        self.verdict_observers: List[Callable[[int, LinkVerdict], None]] = []
        #: registry node for the per-epoch route cache counters; the
        #: RouteComputer re-points these gauges on every reconfiguration.
        self._routing_probes = (
            registry.node(f"switch.{node_id}.routing")
            if registry is not None
            else None
        )
        if registry is not None:
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
        probes.gauge("buffered_cells", self.buffered_cells)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Boot the switch: start monitors and the initial reconfiguration."""
        if self._started:
            return
        self._started = True
        jitter_rng = self.streams.stream(f"{self.node_id}.jitter")
        for card in self.cards:
            if card.port.connected:
                card.monitor = start_port_monitor(
                    self, card.port, self.config, jitter_rng,
                    self._verdict_handler(card.index),
                )
                card.skeptic = card.monitor.skeptic
        self.sim.schedule(
            self.config.boot_reconfig_delay_us
            + jitter_rng.uniform(0.0, self.config.ping_interval_us),
            self._boot_trigger,
        )
        if self.config.resync_interval_us > 0:
            self.sim.schedule(
                self.config.resync_interval_us, self._resync_tick
            )

    def _boot_trigger(self) -> None:
        self.reconfig.trigger()

    def _verdict_handler(self, port_index: int):
        def handler(verdict: LinkVerdict, now: float) -> None:
            self._on_verdict(port_index, verdict)

        return handler

    def _on_verdict(self, port_index: int, verdict: LinkVerdict) -> None:
        card = self.cards[port_index]
        neighbor = card.monitor.neighbor if card.monitor else None
        # "State changes in host links do not trigger reconfiguration."
        if neighbor is not None and neighbor[0].is_switch:
            self.sim.schedule(
                self.config.control_delay_us, self.reconfig.trigger
            )
        if verdict is LinkVerdict.DEAD and self.config.enable_local_reroute:
            self.sim.schedule(
                self.config.control_delay_us, self._reroute_port, port_index
            )
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.record(
                self.sim.now, f"switch.{self.node_id}", "skeptic.verdict",
                port=port_index, verdict=verdict.value,
            )
        for observer in list(self.verdict_observers):
            observer(port_index, verdict)

    # ==================================================================
    # ReconfigTransport interface
    # ==================================================================
    def reconfig_ports(self) -> List[int]:
        """Ports cabled to working, identified switch neighbors."""
        eligible = []
        for card in self.cards:
            monitor = card.monitor
            if monitor is None or monitor.neighbor is None:
                continue
            if card.skeptic and card.skeptic.verdict is not LinkVerdict.WORKING:
                continue
            if monitor.neighbor[0].is_switch:
                eligible.append(card.index)
        return eligible

    def local_edges(self) -> Set[Edge]:
        """Edges this switch vouches for: every working, identified port."""
        edges: Set[Edge] = set()
        for card in self.cards:
            monitor = card.monitor
            if monitor is None or monitor.neighbor is None:
                continue
            if card.skeptic and card.skeptic.verdict is not LinkVerdict.WORKING:
                continue
            neighbor_id, neighbor_port = monitor.neighbor
            a = (self.node_id, card.index)
            b = (neighbor_id, neighbor_port)
            edges.add((a, b) if a <= b else (b, a))
        return edges

    def send_reconfig(self, port_index: int, message) -> None:
        self.ports[port_index].send(
            Cell(vc=0, kind=CellKind.RECONFIG, payload=message)
        )

    def _on_topology_ready(self, value) -> None:
        tag, view = value
        root = tag.initiator
        if root not in set(view.switches()):
            switches = view.switches()
            root = switches[-1] if switches else self.node_id
        previous = self._route_computer
        if previous is not None and previous.root == root:
            # Same root, new view: repair the orientation over the delta
            # instead of rebuilding the world.  Cache entries provably
            # untouched by the delta survive; everything else is evicted
            # (see UpDownOrientation.apply_delta).
            try:
                self._route_computer = previous.with_view(
                    view, epoch=str(tag), probes=self._routing_probes
                )
                self.stats.route_installs_incremental += 1
                self._after_route_install()
                return
            except ValueError:
                pass  # delta incompatible (e.g. disconnection): rebuild
        try:
            # A new epoch gets a new computer, which is what evicts every
            # cached path from the previous configuration (the route
            # cache lives inside the orientation; see updown.py).
            self._route_computer = RouteComputer(
                view,
                root,
                epoch=str(tag),
                probes=self._routing_probes,
            )
            self.stats.route_installs_full += 1
        except ValueError:
            self._route_computer = None
        self._after_route_install()

    def _after_route_install(self) -> None:
        if self.config.enable_local_reroute and self._route_computer:
            # A detour that was illegal under the old up*/down* tree may
            # be legal under the new one: retry circuits still pointed at
            # dead ports.
            self.sim.schedule(
                self.config.control_delay_us, self._repair_broken_circuits
            )

    # ==================================================================
    # SignalingTransport interface
    # ==================================================================
    def route_computer(self) -> Optional[RouteComputer]:
        return self._route_computer

    def attached_host_port(self, host: NodeId) -> Optional[int]:
        for card in self.cards:
            monitor = card.monitor
            if monitor is None or monitor.neighbor is None:
                continue
            if card.skeptic and card.skeptic.verdict is not LinkVerdict.WORKING:
                continue
            if monitor.neighbor[0] == host:
                return card.index
        return None

    def install_circuit(
        self, vc: VcId, in_port: int, out_port: int, request: SetupRequest
    ) -> None:
        card = self.cards[in_port]
        card.routing_table.install(vc, out_port, request, self.sim.now)
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

    def install_multicast(
        self, vc: VcId, in_port: int, out_ports, request
    ) -> None:
        """Install a fanout entry for a multicast circuit."""
        card = self.cards[in_port]
        ports = frozenset(out_ports)
        # The stored request lets diagnostics see the group; reroute and
        # paging skip fanout entries in this release (see multicast.py).
        setup_like = SetupRequest(
            vc=vc,
            source=request.source,
            destination=min(request.destinations),
            traffic_class=TrafficClass.BEST_EFFORT,
            gone_down=request.gone_down,
            hop_count=request.hop_count,
        )
        entry = card.routing_table.install(
            vc, min(ports), setup_like, self.sim.now
        )
        entry.out_ports = ports
        card.routing_table.paged.pop(vc, None)
        self._vc_in_port[vc] = in_port
        card.credits.pool(vc)
        # Each port touches its own card, but sort so per-card state is
        # created in an order independent of the set's hash order.
        for out_port in sorted(ports):
            self.cards[out_port].credits.open_window(vc)
            self._refresh_output(out_port, vc)
        for cell in card.routing_table.take_pending(vc):
            self._enqueue(card, entry, cell)
        self._kick()

    def remove_circuit(self, vc: VcId) -> Tuple[int, ...]:
        """Free the circuit's state on its input card and on every
        output branch; returns the out ports released, ascending (empty
        when the circuit or its routing entry is already gone)."""
        in_port = self._vc_in_port.pop(vc, None)
        if in_port is None:
            return ()
        card = self.cards[in_port]
        entry = card.routing_table.lookup(vc)
        discarded = card.release_vc(vc)
        self.stats.cells_dropped += discarded
        self._queued -= discarded
        self._forget(card, vc)
        if discarded:
            self._kick()  # the queue that kept this switch armed may be gone
        if entry is None:
            return ()
        out_ports = tuple(sorted(entry.out_ports or (entry.out_port,)))
        for out_port in out_ports:
            self.cards[out_port].upstream.pop(vc, None)
            self._refresh_output(out_port, vc)
        return out_ports

    def send_signaling(self, port_index: int, message) -> None:
        self.ports[port_index].send(
            Cell(vc=1, kind=CellKind.SIGNALING, payload=message)
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
        kind = cell.kind
        if kind is CellKind.DATA:
            self._accept_data(port.index, cell)
        elif kind is CellKind.CREDIT:
            self._accept_credit(port.index, cell)
        elif kind is CellKind.PING:
            self.sim.schedule(
                self.config.ping_reply_delay_us,
                self._reply_ping,
                port.index,
                cell.payload,
            )
        elif kind is CellKind.PING_ACK:
            monitor = self.cards[port.index].monitor
            if monitor is not None:
                monitor.on_ack(cell.payload)
        elif kind is CellKind.RECONFIG:
            self.sim.schedule(
                self.config.control_delay_us,
                self._handle_reconfig,
                port.index,
                cell.payload,
            )
        elif kind is CellKind.SIGNALING:
            self.sim.schedule(
                self.config.control_delay_us,
                self._handle_signaling,
                port.index,
                cell.payload,
            )
        else:
            raise ValueError(f"switch cannot handle cell kind {kind}")

    def _reply_ping(self, port_index: int, payload: PingPayload) -> None:
        port = self.ports[port_index]
        if not port.connected:
            return
        ack = make_ack(payload, self.node_id, port_index)
        port.send(Cell(vc=0, kind=CellKind.PING_ACK, payload=ack))

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
        if cell.traffic_class is TrafficClass.BEST_EFFORT:
            try:
                card.credits.pool(cell.vc).receive()
            except CreditError:
                # A correct upstream never overflows us; a buggy or
                # byzantine one loses the cell (counted, not crashed).
                card.cells_dropped += 1
                self.stats.cells_dropped += 1
                if cell.trace_ctx is not None:
                    cell.trace_ctx.record(
                        self.sim.now, f"switch.{self.node_id}", "drop",
                        in_port=in_port, reason="overflow",
                    )
                return
        entry = card.routing_table.lookup(cell.vc)
        if entry is None:
            if (
                self.config.enable_paging
                and cell.vc in card.routing_table.paged
            ):
                self._page_in(in_port, cell.vc)
            if not card.routing_table.buffer_pending(cell.vc, cell):
                self.stats.cells_dropped += 1
                # The buffer the cell occupied is freed again.
                state = card.downstream.get(cell.vc)
                if state is not None and cell.traffic_class is TrafficClass.BEST_EFFORT:
                    state.free()
            else:
                self.stats.pending_buffered += 1
            return
        self._enqueue(card, entry, cell)
        self._kick()

    def _enqueue(self, card: LineCard, entry, cell: Cell) -> None:
        entry.last_activity = self.sim.now
        if cell.trace_ctx is not None:
            cell.trace_ctx.record(
                self.sim.now, f"switch.{self.node_id}", "voq.enqueue",
                in_port=card.index, out_port=entry.out_port,
            )
        if cell.traffic_class is TrafficClass.GUARANTEED:
            card.guaranteed_queues.push(entry.out_port, cell)
            self._queued += 1
        elif entry.is_multicast:
            # Fanout: one copy per branch; the shared token frees the
            # input buffer when the last copy departs.
            assert entry.out_ports is not None
            token = FanoutToken(remaining=len(entry.out_ports))
            for out_port in sorted(entry.out_ports):
                copy = dataclasses.replace(cell, fanout_token=token)
                if card.vc_queues.push(out_port, cell.vc, copy):
                    self._refresh(card, out_port, cell.vc)
            self._queued += len(entry.out_ports)
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
        if self.config.flow_control == "credits":
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
        (up *or* down)."""
        if crossed_zero:
            self._refresh_output(out_port, vc)
        self._kick()

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
            if card.vc_queues.holds(out_port, vc):
                self._refresh(card, out_port, vc)

    # ==================================================================
    # crossbar loop
    # ==================================================================
    def _kick(self) -> None:
        """Tick at the next slot boundary.  Every edge that can make a
        tick useful (a cell or credit in, a circuit or reservation
        installed, a reroute) or end the arming (the last reservation or
        queued cell removed) calls this; on a switch parked on the wave
        (:meth:`_rearm`) it is what un-parks it."""
        if self._tick_scheduled:
            return
        self._tick_scheduled = True
        driver = self._slot_driver
        if driver is not None and (
            self.clock.drift_ppm == 0.0 or driver.is_parked(self)
        ):
            # Section 4's synchronized network: one kernel wave event
            # ticks every drift-free switch due this slot.  (A switch
            # that parked before its clock began to drift leaves the
            # wave through one last tick on it.)
            driver.request_tick(self)
            return
        # The asynchronous regime (a drifting oscillator, also after a
        # mid-run clock-drift fault) or a switch outside any Network:
        # a private timer at the local clock's own rate.
        self.sim.schedule(
            self.clock.global_delay(self.config.slot_time_us), self._slot_tick
        )

    def _slot_tick(self) -> None:
        self._tick_scheduled = False
        slot_index = self._slot_index
        self._slot_index = slot_index + 1
        now = self.sim.now

        # The transmitter's oscillator drives the link in real hardware,
        # so a switch whose clock runs a few ppm fast must not see its
        # own back-to-back slots as "link busy".  Half a slot of slack
        # absorbs the drift; the link model still enforces the true line
        # rate by queueing the start of serialization.
        slack = 0.5 * self.config.slot_time_us

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

        if idle or pre_matched:
            result = self.crossbar.schedule(pre_matched, idle)
            credit_mode = self.config.flow_control == "credits"
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
                    token = cell.fanout_token
                    if token is None or token.branch_departed():
                        self._send_credit(in_port, vc)
                # The token is this switch's bookkeeping; it must not
                # ride to the next hop.
                cell.fanout_token = None
                entry = card.routing_table.lookup(vc)
                if entry is not None:
                    entry.cells_forwarded += 1
                    entry.last_activity = now
                self._transmit(out_port, cell, guaranteed=False)

        # Stay armed while any work (or any reservation) remains.
        if reserved or self._queued:
            self._rearm(now, slack, reserved)

    def _rearm(self, now: float, slack: float, reserved: int) -> None:
        """Arm the tick after this one.  On a private timer that is the
        next slot.  On the wave it is the first slot in which a cell can
        move, by the tests :meth:`_slot_tick` itself applies: (i) some
        wanted output's wire is free, (ii) the frame serves an (input,
        output) pair with a guaranteed cell queued; with neither in
        sight the switch parks until an edge kicks it."""
        driver = self._slot_driver
        if driver is None or self.clock.drift_ppm != 0.0:
            self._kick()
            return
        waves: Optional[int] = None
        want = self.crossbar.want
        if want:
            # Wave times add up as the kernel's ``now + delay`` does, so
            # each comparison is the one the tick at that wave will make.
            slot_time = self.config.slot_time_us
            wave_at = now + slot_time
            ports = self.ports
            free_at = None
            for out_port in bits_of(want):
                port_free_at = ports[out_port].free_at()
                if port_free_at is None:
                    # Down, and no edge will tell this switch when it is
                    # back: as good as free, keep looking every slot.
                    port_free_at = now
                if free_at is None or port_free_at < free_at:
                    free_at = port_free_at
                    if free_at <= wave_at + slack:
                        break
            waves = 1
            while free_at > wave_at + slack:
                wave_at += slot_time
                waves += 1
        if reserved and self._queued and waves != 1:
            frame_slots = self.config.frame_slots
            next_slot = self._slot_index % frame_slots
            schedule = self.frame_schedule
            for card in self.cards:
                for out_port in card.guaranteed_queues.waiting():
                    slot = schedule.next_slot(card.index, out_port, next_slot)
                    if slot is not None:
                        until = (slot - next_slot) % frame_slots + 1
                        if waves is None or until < waves:
                            waves = until
        self._tick_scheduled = not driver.park(self, waves)

    def _transmit(self, out_port: int, cell: Cell, guaranteed: bool) -> None:
        if cell.trace_ctx is not None:
            cell.trace_ctx.record(
                self.sim.now, f"switch.{self.node_id}", "grant",
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
        if entry.is_multicast:
            return False  # fanout entries are not paged in this release
        if vc in card.vc_queues.queued_vcs(entry.out_port):
            return False  # never page out a circuit with cells queued
        out_port = entry.out_port
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
    # extensions: local reroute (section 2)
    # ==================================================================
    def _reroute_port(self, dead_port: int) -> None:
        """Reroute circuits leaving through a dead port.

        "the virtual circuit can be rerouted by sending a new circuit
        setup cell from the point where the path was broken."  Circuits
        whose path does not cross the failed link are untouched.
        """
        computer = self._route_computer
        for card in self.cards:
            for entry in card.routing_table.entries():
                if entry.is_multicast:
                    # Fanout entries are not rerouted in this release; a
                    # dead branch is counted broken (the paper leaves
                    # multicast aside).
                    if entry.out_ports and dead_port in entry.out_ports:
                        self.stats.broken_circuits += 1
                    continue
                if entry.out_port != dead_port:
                    continue
                rerouted = False
                if computer is not None:
                    rerouted = self._reroute_entry(
                        card, entry, computer,
                        blocked_edges=self._edges_on_port(dead_port),
                    )
                if rerouted:
                    self.stats.reroutes += 1
                else:
                    self.stats.broken_circuits += 1

    def reroute_circuit(self, vc: VcId, blocked_edges: frozenset) -> bool:
        """Move one circuit off the given edges from this switch onward
        (used by the load-balancing extension).  Returns success."""
        in_port = self._vc_in_port.get(vc)
        if in_port is None or self._route_computer is None:
            return False
        card = self.cards[in_port]
        entry = card.routing_table.lookup(vc)
        if entry is None:
            return False
        moved = self._reroute_entry(
            card, entry, self._route_computer, blocked_edges=blocked_edges
        )
        if moved:
            self.stats.reroutes += 1
        return moved

    def _repair_broken_circuits(self) -> None:
        """Retry local reroute for circuits still routed at dead ports."""
        computer = self._route_computer
        if computer is None:
            return
        for card in self.cards:
            for entry in card.routing_table.entries():
                if entry.is_multicast:
                    continue
                out_card = self.cards[entry.out_port]
                if (
                    out_card.skeptic is None
                    or out_card.skeptic.verdict is LinkVerdict.WORKING
                ):
                    continue
                if self._reroute_entry(
                    card,
                    entry,
                    computer,
                    blocked_edges=self._edges_on_port(entry.out_port),
                ):
                    self.stats.reroutes += 1

    def _reroute_entry(
        self, card: LineCard, entry, computer, blocked_edges: frozenset
    ) -> bool:
        request = entry.request
        host_port = self.attached_host_port(request.destination)
        dead_edges = blocked_edges
        if host_port is not None and host_port != entry.out_port:
            new_port = host_port
            gone_down = request.gone_down
        else:
            try:
                dest_switch, _ = computer.attachment(request.destination)
            except Exception:
                return False
            if dest_switch == self.node_id:
                return False
            if not request.gone_down:
                path = computer.orientation.shortest_legal_path(
                    self.node_id, dest_switch, blocked_edges=dead_edges
                )
            else:
                path = None  # only down-moves allowed; recompute below
            if path is None and request.gone_down:
                path = computer.orientation._shortest_down_only_path(
                    self.node_id, dest_switch
                )
                if path is not None and any(e in dead_edges for e in path[1]):
                    path = None
            if path is None or not path[1]:
                return False
            from repro.core.routing.paths import port_on

            first_edge = path[1][0]
            new_port = port_on(first_edge, self.node_id)
            gone_down = request.gone_down or not (
                computer.orientation.is_up_traversal(first_edge, self.node_id)
            )
        vc = entry.vc
        # Move queued cells to the new output group.
        cells = card.vc_queues.drain_vc(vc)
        self._forget(card, vc)
        old_out = entry.out_port
        entry.out_port = new_port
        self.cards[old_out].upstream.pop(vc, None)
        self._refresh_output(old_out, vc)
        if request.traffic_class is TrafficClass.BEST_EFFORT:
            self.cards[new_port].credits.open_window(vc)
        for cell in cells:
            card.vc_queues.push(new_port, vc, cell)
        self._refresh_output(new_port, vc)
        forwarded = SetupRequest(
            vc=vc,
            source=request.source,
            destination=request.destination,
            traffic_class=request.traffic_class,
            gone_down=gone_down,
            hop_count=request.hop_count + 1,
        )
        self.send_signaling(new_port, forwarded)
        self._kick()
        return True

    def _edges_on_port(self, port_index: int) -> frozenset:
        card = self.cards[port_index]
        monitor = card.monitor
        if monitor is None or monitor.neighbor is None:
            return frozenset()
        neighbor_id, neighbor_port = monitor.neighbor
        a = (self.node_id, port_index)
        b = (neighbor_id, neighbor_port)
        return frozenset({(a, b) if a <= b else (b, a)})

    # ==================================================================
    @property
    def slot_index(self) -> int:
        """Cell slots this switch's clock has counted while armed: one
        per tick, and one per wave sat out parked."""
        driver = self._slot_driver
        if driver is None:
            return self._slot_index
        return self._slot_index + driver.sat_out(self)

    def set_clock_drift(self, drift_ppm: float) -> None:
        """Step the local oscillator (a clock-drift fault).  A switch
        parked on the wave is un-parked, so it leaves the wave at the
        next slot, as one walked every slot would."""
        self.clock.set_drift(drift_ppm)
        driver = self._slot_driver
        if driver is not None and driver.is_parked(self):
            self._kick()

    def buffered_cells(self) -> int:
        return self._queued

    def topology_view(self) -> Optional[TopologyView]:
        return self.reconfig.view

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AN2Switch {self.node_id} buf={self.buffered_cells()}>"
