"""Hosts and their network controllers.

Section 1: "Each host has a controller which serves as its interface to
the network...  a host presents packets to its controller, which
disassembles them into cells to transmit to the network.  The controller
at the receiving host will re-assemble the cells into packets."  And:
"Each host has links to two different switches.  Only one link is in
active use at any time; the other is an alternate to be used if the first
fails."

The controller here:

- segments outgoing packets (AAL5-style) and paces cells onto the active
  link -- best-effort circuits under credit flow control, guaranteed
  circuits under strict CBR pacing ("The network controller prevents a
  host from sending more than its reserved bandwidth", section 5),
- reassembles incoming cells, returning a credit per best-effort cell
  (the host buffer drains instantly into memory),
- answers pings and monitors its own links, failing over to the
  alternate port when the skeptic declares the active link dead.

The first hop is a link like any other: each port holds the same
:class:`~repro.core.flowcontrol.endpoint.CreditEndpoint` a switch line
card does, resynchronization included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro._types import NodeId, VcId
from repro.constants import PING_REPLY_DELAY_US
from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.signaling import SetupRequest, TeardownRequest
from repro.net.aal import Reassembler, ReassemblyError, Segmenter
from repro.net.cell import (
    BEST_EFFORT, CREDIT, DATA, GUARANTEED, PING, PING_ACK, RECONFIG,
    SIGNALING, Cell, TrafficClass,
)
from repro.obs.journey import attach_journey
from repro.net.node import MonitorConfig, Node
from repro.net.packet import Packet
from repro.net.port import Port
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from repro.sim.signal import Signal
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.switch import SwitchConfig


@dataclass(kw_only=True)
class HostConfig(MonitorConfig):
    """What a host decides for itself: how it watches its links and what
    it does when one dies.  What both ends of a link must agree on is
    not here; a host reads it from the installation's ``SwitchConfig``."""


@dataclass
class _Sender:
    """Per-circuit transmit state."""

    vc: VcId
    destination: NodeId
    traffic_class: TrafficClass
    segmenter: Segmenter
    queue: Deque[Cell] = field(default_factory=deque)
    cells_per_frame: int = 0
    cells_sent: int = 0
    pacer_running: bool = False


class Host(Node):
    """A dual-homed host with its AN2 controller."""

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        switch_config: "SwitchConfig",
        config: Optional[HostConfig] = None,
        n_ports: int = 2,
        registry=None,
    ) -> None:
        """``switch_config``: what the two ends of a link share
        (``flow_control``, ``credit_allocation``, ``frame_slots``,
        ``resync_interval_us``) is read from the switches' config."""
        super().__init__(sim, node_id, n_ports)
        # The controller answers a ping this long after it arrives.
        self.cell_delay_us = {PING: PING_REPLY_DELAY_US}
        self.streams = streams
        self.switch_config = switch_config
        self.config = config if config is not None else HostConfig()
        self.active_port_index = 0
        #: per port: windows of our best-effort circuits on the active
        #: one, pools of circuits delivered to us where they arrive.
        self.credits: List[CreditEndpoint] = [
            CreditEndpoint(
                sim, port, switch_config,
                on_window=lambda vc, crossed_zero: self._kick_pump(),
            )
            for port in self.ports
        ]
        self.senders: Dict[VcId, _Sender] = {}
        self.reassembler = Reassembler()
        self.delivered: List[Packet] = []
        self._probes = (
            registry.node(f"host.{node_id}") if registry is not None else None
        )
        if self._probes is not None:
            self.packet_latency = self._probes.tally("packet_latency")
            self._probes.gauge("cells_received", lambda: self.cells_received)
            self._probes.gauge(
                "reassembly_errors", lambda: self.reassembly_errors
            )
            self._probes.gauge("packets_delivered", lambda: len(self.delivered))
            self._probes.gauge("queued_cells", self.queued_cells)
        else:
            self.packet_latency = Tally(f"{node_id}.packet_latency")
        self.cell_latency: Dict[VcId, Tally] = {}
        self.cell_arrivals: Dict[VcId, List[float]] = {}
        self.packet_delivered = Signal(f"{node_id}.packet_delivered")
        self.setup_received = Signal(f"{node_id}.setup_received")
        self.failover = Signal(f"{node_id}.failover")
        self.incoming_circuits: Dict[VcId, SetupRequest] = {}
        #: outcomes of distributed bandwidth reservations we originated.
        self.reservation_outcomes: Dict[VcId, str] = {}
        self.reservation_decided = Signal(f"{node_id}.reservation_decided")
        self.received_counts: Dict[VcId, int] = {}
        self.reassembly_errors = 0
        self.cells_received = 0
        self._pump_scheduled = False
        self._rotation: Deque[VcId] = deque()
        self._started = False

    # ==================================================================
    @property
    def active_port(self) -> Port:
        return self.ports[self.active_port_index]

    def start(self) -> None:
        """Begin monitoring the host's links (enables failover)."""
        if self._started:
            return
        self._started = True
        self.start_monitors(
            self.config, self.streams.stream(f"{self.node_id}.jitter")
        )
        if self.switch_config.resync_interval_us > 0:
            self.sim.schedule(
                self.switch_config.resync_interval_us, self._resync_tick
            )

    def _resync_tick(self) -> None:
        """Periodic credit resynchronization: one round on every port."""
        for credits in self.credits:
            credits.resync_round()
        self.sim.schedule(
            self.switch_config.resync_interval_us, self._resync_tick
        )

    def _on_verdict(
        self, port_index: int, verdict: LinkVerdict, now: float
    ) -> None:
        if verdict is LinkVerdict.DEAD and port_index == self.active_port_index:
            self._fail_over()

    def _fail_over(self) -> None:
        """Switch to the alternate link and re-open circuits on it."""
        old = self.credits[self.active_port_index]
        for candidate in self.ports:
            if candidate.index == self.active_port_index:
                continue
            if candidate.connected:
                self.active_port_index = candidate.index
                # Fresh credit windows for the fresh first hop: the old
                # windows' outstanding cells died with the old link.
                for vc in old.upstream:
                    self.credits[candidate.index].open_window(vc)
                old.upstream.clear()
                self._reopen_circuits()
                self.failover.fire(candidate.index)
                return

    def _reopen_circuits(self) -> None:
        """Re-emit setup cells for open best-effort circuits on the new
        active link (guaranteed circuits need re-admission and are left
        to the application).  Cells in flight on the old path are lost (their
        packets surface as reassembly errors); queued cells follow the
        new path once its entries install."""
        for sender in self.senders.values():
            if sender.traffic_class is BEST_EFFORT:
                self._send_setup(sender)
        self._kick_pump()

    def _send_setup(self, sender: _Sender) -> None:
        request = SetupRequest(
            vc=sender.vc,
            source=self.node_id,
            destination=sender.destination,
            traffic_class=sender.traffic_class,
        )
        self.active_port.send(
            Cell(vc=1, kind=SIGNALING, payload=request)
        )

    # ==================================================================
    # circuit management
    # ==================================================================
    def open_circuit(
        self,
        vc: VcId,
        destination: NodeId,
        traffic_class: TrafficClass = BEST_EFFORT,
        cells_per_frame: int = 0,
        send_setup: bool = True,
    ) -> None:
        """Create transmit state for a circuit and emit its setup cell."""
        if vc in self.senders:
            raise ValueError(f"circuit {vc} already open at {self.node_id}")
        if traffic_class is GUARANTEED and cells_per_frame <= 0:
            raise ValueError("guaranteed circuits need cells_per_frame > 0")
        sender = _Sender(
            vc=vc,
            destination=destination,
            traffic_class=traffic_class,
            segmenter=Segmenter(vc, traffic_class),
            cells_per_frame=cells_per_frame,
        )
        if traffic_class is BEST_EFFORT:
            self.credits[self.active_port_index].open_window(vc)
            self._rotation.append(vc)
        self.senders[vc] = sender
        if send_setup:
            self._send_setup(sender)

    def close_circuit(self, vc: VcId, send_teardown: bool = True) -> None:
        sender = self.senders.pop(vc, None)
        if sender is None:
            return
        if vc in self._rotation:
            self._rotation.remove(vc)
        self.credits[self.active_port_index].upstream.pop(vc, None)
        if send_teardown and self.active_port.connected:
            self.active_port.send(
                Cell(vc=1, kind=SIGNALING, payload=TeardownRequest(vc))
            )

    # ==================================================================
    # transmit path
    # ==================================================================
    def send_packet(self, vc: VcId, packet: Packet) -> None:
        """Queue a packet for transmission on an open circuit."""
        sender = self.senders.get(vc)
        if sender is None:
            raise KeyError(f"no open circuit {vc} at {self.node_id}")
        packet.created_at = self.sim.now
        cells = sender.segmenter.segment(packet, now=self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled("journey"):
            attach_journey(tracer, cells, self.sim.now, self.node_id.label)
        sender.queue.extend(cells)
        if sender.traffic_class is GUARANTEED:
            self._start_pacer(sender)
        else:
            self._kick_pump()

    def send_raw_cells(self, vc: VcId, count: int) -> None:
        """Queue synthetic single-cell payloads (benchmark workloads)."""
        sender = self.senders.get(vc)
        if sender is None:
            raise KeyError(f"no open circuit {vc} at {self.node_id}")
        tracer = self.sim.tracer
        journeys = tracer is not None and tracer.enabled("journey")
        for _ in range(count):
            packet = Packet(
                source=self.node_id,
                destination=sender.destination,
                payload=b"",
                size=1,
                created_at=self.sim.now,
            )
            cells = sender.segmenter.segment(packet, now=self.sim.now)
            if journeys:
                attach_journey(tracer, cells, self.sim.now, self.node_id.label)
            sender.queue.extend(cells)
        if sender.traffic_class is GUARANTEED:
            self._start_pacer(sender)
        else:
            self._kick_pump()

    # ------------------------------------------------------------------
    # best-effort pump: round-robin over credited circuits at link rate
    # ------------------------------------------------------------------
    def _kick_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.sim.schedule(0.0, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        port = self.active_port
        if not port.connected:
            return
        now = self.sim.now
        if not port.can_transmit_at(now):
            assert port.link is not None
            if not port.link.working:
                # Dead link: do not spin.  Failover (or restoration)
                # kicks the pump again when there is a path.
                return
            # Link busy: retry when the current cell finishes serializing.
            delay = max(port.link.next_free(port._direction) - now, 0.0)
            self._pump_scheduled = True
            self.sim.schedule(delay + 1e-6, self._pump)
            return
        sent = False
        credits = self.credits[port.index]
        windows = credits.upstream  # empty in drop mode: nothing gates
        for _ in range(len(self._rotation)):
            vc = self._rotation[0]
            self._rotation.rotate(-1)
            sender = self.senders.get(vc)
            if sender is None or not sender.queue:
                continue
            window = windows.get(vc)
            if window is not None:
                if not window.can_send:
                    credits.note_stall(window)
                    continue
                window.consume()
            cell = sender.queue.popleft()
            sender.cells_sent += 1
            if cell.trace_ctx is not None:
                cell.trace_ctx.record(
                    now, self.node_id.label, "tx", port=port.index
                )
            port.send(cell)
            sent = True
            break
        if sent or any(
            s.queue
            and s.traffic_class is BEST_EFFORT
            and (s.vc not in windows or windows[s.vc].can_send)
            for s in self.senders.values()
        ):
            # More work now or soon: pace at the link's cell time.
            assert port.link is not None
            self._pump_scheduled = True
            self.sim.schedule(port.link.cell_time_us, self._pump)

    # ------------------------------------------------------------------
    # guaranteed pacer: strict CBR, one cell every frame/k
    # ------------------------------------------------------------------
    def _start_pacer(self, sender: _Sender) -> None:
        if sender.pacer_running:
            return
        sender.pacer_running = True
        self.sim.schedule(0.0, self._pace, sender.vc)

    def _pace(self, vc: VcId) -> None:
        sender = self.senders.get(vc)
        if sender is None:
            return
        port = self.active_port
        if sender.queue and port.connected:
            cell = sender.queue.popleft()
            # Guaranteed latency is measured from network entry: the
            # p*(2f+l) bound (section 4) is about transit, not about how
            # long the application queued behind its own reserved rate.
            cell.created_at = self.sim.now
            sender.cells_sent += 1
            if cell.trace_ctx is not None:
                cell.trace_ctx.record(
                    self.sim.now, self.node_id.label, "tx", port=port.index
                )
            port.send(cell)
        if sender.queue:
            assert port.link is not None
            interval = (
                self.switch_config.frame_slots
                * port.link.cell_time_us
                / sender.cells_per_frame
            )
            self.sim.schedule(interval, self._pace, vc)
        else:
            sender.pacer_running = False

    # ==================================================================
    # receive path
    # ==================================================================
    def on_cell(self, port: Port, cell: Cell) -> None:
        kind = cell.kind
        if kind is DATA:
            self._accept_data(port, cell)
        elif kind is CREDIT:
            self._accept_credit(port, cell)
        elif kind is PING:
            self._reply_ping(port.index, cell.payload)
        elif kind is PING_ACK:
            self._accept_ping_ack(port.index, cell.payload)
        elif kind is SIGNALING:
            self._accept_signaling(cell.payload, port=port)
        elif kind is RECONFIG:
            pass  # hosts do not participate in reconfiguration
        else:
            raise ValueError(f"host cannot handle cell kind {kind}")

    def _reply_ping(self, port_index: int, payload) -> None:
        self._send_ping_ack(port_index, payload)

    def _accept_data(self, port: Port, cell: Cell) -> None:
        self.cells_received += 1
        self.received_counts[cell.vc] = self.received_counts.get(cell.vc, 0) + 1
        if cell.traffic_class is BEST_EFFORT:
            # The controller drains cells into host memory immediately, so
            # the buffer is free the moment the cell arrives.
            credits = self.credits[port.index]
            credits.pool(cell.vc).receive()
            credits.free(cell.vc)
        tally = self.cell_latency.get(cell.vc)
        if tally is None:
            if self._probes is not None:
                tally = self._probes.tally(f"vc{cell.vc}.cell_latency")
            else:
                tally = Tally(f"vc{cell.vc}.cell_latency")
            self.cell_latency[cell.vc] = tally
        tally.record(self.sim.now - cell.created_at)
        self.cell_arrivals.setdefault(cell.vc, []).append(self.sim.now)
        ctx = cell.trace_ctx
        if ctx is not None:
            ctx.record(
                self.sim.now, self.node_id.label, "deliver",
                latency=self.sim.now - cell.created_at,
            )
        aborted_before = self.reassembler.packets_aborted
        try:
            packet = self.reassembler.accept(cell)
        except ReassemblyError:
            self.reassembly_errors += 1
            self.sim.note(
                "host", self.node_id.label, "reassembly.error",
                vc=cell.vc, seq=cell.seq,
            )
            return
        # A stale partial discarded during seq-0 resynchronization is a
        # corrupted packet too, even though the cell itself was accepted.
        aborted = self.reassembler.packets_aborted - aborted_before
        self.reassembly_errors += aborted
        if aborted:
            self.sim.note(
                "host", self.node_id.label, "reassembly.abort",
                vc=cell.vc, aborted=aborted,
            )
        if packet is not None:
            packet.delivered_at = self.sim.now
            self.delivered.append(packet)
            self.packet_latency.record(packet.latency)
            if ctx is not None:
                ctx.record(
                    self.sim.now, self.node_id.label, "packet.done",
                    latency=packet.latency,
                )
            self.packet_delivered.fire(packet)

    def _accept_credit(self, port: Port, cell: Cell) -> None:
        self.credits[port.index].accept(cell)

    def _accept_signaling(self, message, port: Optional[Port] = None) -> None:
        from repro.core.guaranteed.distributed import (
            ReserveConfirm,
            ReserveReject,
            ReserveRequest,
        )

        if isinstance(message, SetupRequest):
            self.incoming_circuits[message.vc] = message
            self.setup_received.fire(message)
        elif isinstance(message, TeardownRequest):
            self.incoming_circuits.pop(message.vc, None)
            self.reassembler.abort(message.vc)
            if port is not None:
                self.credits[port.index].downstream.pop(message.vc, None)
        elif isinstance(message, ReserveRequest):
            # We are the destination: the reservation reached us; confirm
            # back along the path.
            self.incoming_circuits[message.vc] = SetupRequest(
                vc=message.vc,
                source=message.source,
                destination=message.destination,
                traffic_class=GUARANTEED,
            )
            self.setup_received.fire(message)
            if port is not None:
                port.send(
                    Cell(
                        vc=1,
                        kind=SIGNALING,
                        payload=ReserveConfirm(message.vc),
                    )
                )
        elif isinstance(message, ReserveConfirm):
            self.reservation_outcomes[message.vc] = "granted"
            self.reservation_decided.fire((message.vc, "granted"))
        elif isinstance(message, ReserveReject):
            self.reservation_outcomes[message.vc] = f"rejected: {message.reason}"
            self.reservation_decided.fire((message.vc, "rejected"))

    # ==================================================================
    def queued_cells(self) -> int:
        return sum(len(s.queue) for s in self.senders.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.node_id} active=p{self.active_port_index}>"
