"""AN1 (Autonet): the packet-switched predecessor, for contrast.

Section 1: "AN1 was designed to provide the same service as ethernet,
transmitting variable-length packets between host computers...  AN1
supports a link bandwidth of 100 Mbit/sec...  A packet can be routed as
soon as its header has been received.  In the absence of contention, the
first bit of a packet leaves the switch 2 microseconds after it
arrives."  Each switch has 12 ports and **FIFO input buffers** -- the
head-of-line-blocking organisation AN2's random-access buffers replace.

Two AN1 behaviours this model exists to contrast with AN2:

- section 2: "In AN1, all switches must collaborate in a reconfiguration,
  and all packets in transit are dropped when a reconfiguration begins"
  (AN2's local reroute avoids this; ablation A5);
- section 5: AN1 prevents deadlock by **up*/down* route restriction**
  rather than per-VC buffers -- packets here carry the ``gone_down``
  bit and each hop forwards only along legal continuations.

The control plane is not AN1's own: port monitors and skeptics
(:class:`~repro.net.node.Node`), three-phase reconfiguration and the
epoch's up*/down* routes (:class:`~repro.switch.control.SwitchNode`) run
on both switch generations, which is itself a point of the paper, and
:class:`An1Network` is an :class:`~repro.net.installation.Installation`
like AN2's ``Network``.  What AN1 keeps for itself: FIFO input buffers
of :data:`~repro.constants.AN1_FIFO_PACKETS` packets, packet
cut-through, the ``gone_down`` bit, the flush of every FIFO when a
reconfiguration begins, whole-packet hosts that answer pings on the
spot, and 100 Mbit/s links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro._types import NodeId
from repro.constants import (
    AN1_FIFO_PACKETS,
    AN1_LINK_BPS,
    AN1_SWITCH_PORTS,
    CUT_THROUGH_DELAY_US,
    PING_REPLY_DELAY_US,
)
from repro.core.routing.signaling import choose_output
from repro.net.cell import DATA, PING, PING_ACK, RECONFIG, Cell
from repro.net.installation import Installation
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from repro.sim.random import RandomStreams
from repro.switch.control import SwitchNode, SwitchNodeConfig


@dataclass(kw_only=True)
class An1Config(SwitchNodeConfig):
    n_ports: int = AN1_SWITCH_PORTS

    AT_LEAST_ONE = SwitchNodeConfig.AT_LEAST_ONE + ("n_ports",)


@dataclass
class _QueuedPacket:
    packet: Packet
    gone_down: bool
    enqueued_at: float


_an1_packet_overhead_bits = 96  # header+trailer, ethernet-ish


class An1Switch(SwitchNode):
    """A 12-port AN1 switch: FIFO input buffers, packet cut-through."""

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        config: Optional[An1Config] = None,
        n_ports: Optional[int] = None,
        registry=None,
        route_computers=None,
    ) -> None:
        super().__init__(
            sim, node_id, streams,
            config if config is not None else An1Config(), n_ports,
            route_computers=route_computers,
        )
        self.cell_delay_us = {
            PING: PING_REPLY_DELAY_US,
            RECONFIG: self.config.control_delay_us,
        }
        self.fifos: List[Deque[_QueuedPacket]] = [
            deque() for _ in range(self.n_ports)
        ]
        self._forwarding: List[bool] = [False] * self.n_ports  # per input
        self.reconfig.joined.subscribe(self._on_reconfig_joined)
        self.packets_forwarded = 0
        self.packets_dropped_reconfig = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_overflow = 0
        if registry is not None:
            probes = registry.node(f"an1.{node_id}")
            probes.gauge("packets_forwarded", lambda: self.packets_forwarded)
            probes.gauge(
                "dropped_reconfig", lambda: self.packets_dropped_reconfig
            )
            probes.gauge(
                "dropped_no_route", lambda: self.packets_dropped_no_route
            )
            probes.gauge(
                "dropped_overflow", lambda: self.packets_dropped_overflow
            )
            probes.gauge("buffered_packets", self.buffered_packets)

    def _on_reconfig_joined(self, tag) -> None:
        """"all packets in transit are dropped when a reconfiguration
        begins" -- flush every FIFO."""
        for fifo in self.fifos:
            self.packets_dropped_reconfig += len(fifo)
            fifo.clear()

    # ==================================================================
    # packet data path
    # ==================================================================
    def on_cell(self, port: Port, cell: Cell) -> None:
        kind = cell.kind
        if kind is DATA:
            self._accept_packet(port.index, cell.payload)
        elif kind is PING:
            self._send_ping_ack(port.index, cell.payload)
        elif kind is PING_ACK:
            self._accept_ping_ack(port.index, cell.payload)
        elif kind is RECONFIG:
            self.reconfig.handle(port.index, cell.payload)
        else:
            raise ValueError(f"AN1 switch cannot handle cell kind {kind}")

    def _accept_packet(self, in_port: int, queued: "_QueuedPacket") -> None:
        fifo = self.fifos[in_port]
        if len(fifo) >= AN1_FIFO_PACKETS:
            self.packets_dropped_overflow += 1
            return
        queued.enqueued_at = self.sim.now
        fifo.append(queued)
        # Header processed after the cut-through delay.
        self.sim.schedule(CUT_THROUGH_DELAY_US, self._try_forward, in_port)

    def _try_forward(self, in_port: int) -> None:
        """Serve the head of one input FIFO (head-of-line semantics)."""
        fifo = self.fifos[in_port]
        if self._forwarding[in_port] or not fifo:
            return
        head = fifo[0]
        decision = choose_output(
            self, self.node_id, head.packet.destination, head.gone_down
        )
        if decision is None:
            fifo.popleft()
            self.packets_dropped_no_route += 1
            self.sim.schedule(0.0, self._try_forward, in_port)
            return
        out_port, gone_down = decision
        port = self.ports[out_port]
        if not port.connected or port.link is None or not port.link.working:
            fifo.popleft()
            self.packets_dropped_no_route += 1
            self.sim.schedule(0.0, self._try_forward, in_port)
            return
        if not port.can_transmit_at(self.sim.now):
            # Output busy: the whole input FIFO blocks (AN1's head-of-
            # line blocking).  Retry when the wire frees.
            delay = max(
                port.link.next_free(port._direction) - self.sim.now, 0.0
            )
            self._forwarding[in_port] = True
            self.sim.schedule(delay + 1e-6, self._retry, in_port)
            return
        fifo.popleft()
        head.gone_down = gone_down
        bits = (head.packet.size or 0) * 8 + _an1_packet_overhead_bits
        port.send(Cell(vc=0, kind=DATA, payload=head), bits=bits)
        self.packets_forwarded += 1
        if fifo:
            self.sim.schedule(0.0, self._try_forward, in_port)

    def _retry(self, in_port: int) -> None:
        self._forwarding[in_port] = False
        self._try_forward(in_port)

    def buffered_packets(self) -> int:
        return sum(len(fifo) for fifo in self.fifos)


class An1Host(Node):
    """A minimal AN1 host: whole-packet send/receive."""

    def __init__(
        self, sim: Simulator, node_id: NodeId, n_ports: int = 1,
        registry=None,
    ) -> None:
        super().__init__(sim, node_id, n_ports)
        self.delivered: List[Packet] = []
        if registry is not None:
            self.packet_latency = registry.tally(
                f"an1.{node_id}.an1_latency"
            )
        else:
            self.packet_latency = Tally(f"{node_id}.an1_latency")

    def send_packet(self, packet: Packet) -> None:
        packet.created_at = self.sim.now
        bits = (packet.size or 0) * 8 + _an1_packet_overhead_bits
        self.ports[0].send(
            Cell(
                vc=0,
                kind=DATA,
                payload=_QueuedPacket(packet, gone_down=False, enqueued_at=self.sim.now),
            ),
            bits=bits,
        )

    def on_cell(self, port: Port, cell: Cell) -> None:
        if cell.kind is DATA:
            queued = cell.payload
            packet = queued.packet
            packet.delivered_at = self.sim.now
            self.delivered.append(packet)
            self.packet_latency.record(packet.latency)
        elif cell.kind is PING:
            self._send_ping_ack(port.index, cell.payload)
        elif cell.kind in (PING_ACK, RECONFIG):
            pass
        else:
            raise ValueError(f"AN1 host cannot handle {cell.kind}")


class An1Network(Installation):
    """An AN1 installation: :class:`An1Switch` and :class:`An1Host`
    devices on 100 Mbit/s links."""

    def __init__(self, topology, seed: int = 0, config: Optional[An1Config] = None):
        super().__init__(topology, seed)
        self.config = config if config is not None else An1Config()
        for node in topology.switches():
            self.switches[node] = An1Switch(
                self.sim,
                node,
                self.streams.fork(str(node)),
                config=self.config,
                n_ports=topology.ports_of(node),
                registry=self.registry,
                route_computers=self.route_computers,
            )
        for node in topology.hosts():
            self.hosts[node] = An1Host(
                self.sim, node, n_ports=topology.ports_of(node),
                registry=self.registry,
            )
        self._cable(bps=AN1_LINK_BPS)

    def total_dropped_on_reconfig(self) -> int:
        return sum(
            s.packets_dropped_reconfig for s in self.switches.values()
        )

    def buffered_packets(self) -> int:
        return sum(s.buffered_packets() for s in self.switches.values())
