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

The control plane (port monitors, skeptic, three-phase reconfiguration)
is shared verbatim with AN2 -- the same agents run on both switches,
which is itself a point of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from collections import deque

from repro._types import NodeId
from repro.constants import AN1_LINK_BPS, AN1_SWITCH_PORTS, CUT_THROUGH_DELAY_US
from repro.core.reconfig.algorithm import ReconfigurationAgent
from repro.core.reconfig.monitor import (
    PingPayload,
    PortMonitor,
    make_ack,
    start_port_monitor,
)
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.paths import RouteComputer, port_on
from repro.net.cell import Cell, CellKind
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.topology import Edge
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from repro.sim.random import RandomStreams


@dataclass
class An1Config:
    n_ports: int = AN1_SWITCH_PORTS
    cut_through_delay_us: float = CUT_THROUGH_DELAY_US
    #: FIFO depth per input, in packets.
    fifo_packets: int = 64
    control_delay_us: float = 20.0
    ping_interval_us: float = 1_000.0
    ack_timeout_us: float = 400.0
    miss_threshold: int = 3
    skeptic_base_wait_us: float = 10_000.0
    skeptic_max_level: int = 8
    skeptic_decay_us: float = 1_000_000.0
    boot_reconfig_delay_us: float = 3_500.0
    reconfig_watchdog_us: float = 100_000.0
    #: the paper's AN1 behaviour; disable to measure its benefit.
    drop_packets_on_reconfig: bool = True


@dataclass
class _QueuedPacket:
    packet: Packet
    gone_down: bool
    enqueued_at: float


_an1_packet_overhead_bits = 96  # header+trailer, ethernet-ish


class An1Switch(Node):
    """A 12-port AN1 switch: FIFO input buffers, packet cut-through."""

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        config: Optional[An1Config] = None,
        n_ports: Optional[int] = None,
        registry=None,
    ) -> None:
        self.config = config if config is not None else An1Config()
        ports = n_ports if n_ports is not None else self.config.n_ports
        super().__init__(sim, node_id, ports)
        self.streams = streams
        self.fifos: List[Deque[_QueuedPacket]] = [
            deque() for _ in range(ports)
        ]
        self._forwarding: List[bool] = [False] * ports  # per input
        self.monitors: Dict[int, PortMonitor] = {}
        self.reconfig = ReconfigurationAgent(
            sim,
            node_id,
            transport=self,
            watchdog_us=self.config.reconfig_watchdog_us,
        )
        self.reconfig.ready.subscribe(self._on_topology_ready)
        self.reconfig.joined.subscribe(self._on_reconfig_joined)
        self._route_computer: Optional[RouteComputer] = None
        self.packets_forwarded = 0
        self.packets_dropped_reconfig = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_overflow = 0
        self._started = False
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

    # ==================================================================
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        jitter = self.streams.stream(f"{self.node_id}.jitter")
        for port in self.ports:
            if not port.connected:
                continue
            self.monitors[port.index] = start_port_monitor(
                self, port, self.config, jitter,
                self._verdict_handler(port.index),
            )
        self.sim.schedule(
            self.config.boot_reconfig_delay_us
            + jitter.uniform(0, self.config.ping_interval_us),
            self.reconfig.trigger,
        )

    def _verdict_handler(self, port_index: int):
        def handler(verdict: LinkVerdict, now: float) -> None:
            monitor = self.monitors.get(port_index)
            if (
                monitor is not None
                and monitor.neighbor is not None
                and monitor.neighbor[0].is_switch
            ):
                self.sim.schedule(
                    self.config.control_delay_us, self.reconfig.trigger
                )

        return handler

    # ==================================================================
    # ReconfigTransport interface (shared with AN2Switch)
    # ==================================================================
    def reconfig_ports(self) -> List[int]:
        eligible = []
        for index, monitor in self.monitors.items():
            if monitor.neighbor is None:
                continue
            if monitor.verdict is not LinkVerdict.WORKING:
                continue
            if monitor.neighbor[0].is_switch:
                eligible.append(index)
        return sorted(eligible)

    def local_edges(self) -> Set[Edge]:
        edges: Set[Edge] = set()
        for index, monitor in self.monitors.items():
            if monitor.neighbor is None:
                continue
            if monitor.verdict is not LinkVerdict.WORKING:
                continue
            neighbor_id, neighbor_port = monitor.neighbor
            a = (self.node_id, index)
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
            try:
                self._route_computer = previous.with_view(view)
                return
            except ValueError:
                pass  # delta incompatible (e.g. disconnection): rebuild
        try:
            self._route_computer = RouteComputer(view, root)
        except ValueError:
            self._route_computer = None

    def _on_reconfig_joined(self, tag) -> None:
        """"all packets in transit are dropped when a reconfiguration
        begins" -- flush every FIFO."""
        if not self.config.drop_packets_on_reconfig:
            return
        for fifo in self.fifos:
            self.packets_dropped_reconfig += len(fifo)
            fifo.clear()

    # ==================================================================
    # packet data path
    # ==================================================================
    def on_cell(self, port: Port, cell: Cell) -> None:
        kind = cell.kind
        if kind is CellKind.DATA:
            self._accept_packet(port.index, cell.payload)
        elif kind is CellKind.PING:
            self.sim.schedule(
                1.0, self._reply_ping, port.index, cell.payload
            )
        elif kind is CellKind.PING_ACK:
            monitor = self.monitors.get(port.index)
            if monitor is not None:
                monitor.on_ack(cell.payload)
        elif kind is CellKind.RECONFIG:
            self.sim.schedule(
                self.config.control_delay_us,
                self.reconfig.handle,
                port.index,
                cell.payload,
            )
        else:
            raise ValueError(f"AN1 switch cannot handle cell kind {kind}")

    def _reply_ping(self, port_index: int, payload: PingPayload) -> None:
        port = self.ports[port_index]
        if port.connected:
            port.send(
                Cell(
                    vc=0,
                    kind=CellKind.PING_ACK,
                    payload=make_ack(payload, self.node_id, port_index),
                )
            )

    def _accept_packet(self, in_port: int, queued: "_QueuedPacket") -> None:
        fifo = self.fifos[in_port]
        if len(fifo) >= self.config.fifo_packets:
            self.packets_dropped_overflow += 1
            return
        queued.enqueued_at = self.sim.now
        fifo.append(queued)
        # Header processed after the cut-through delay.
        self.sim.schedule(
            self.config.cut_through_delay_us, self._try_forward, in_port
        )

    def _try_forward(self, in_port: int) -> None:
        """Serve the head of one input FIFO (head-of-line semantics)."""
        fifo = self.fifos[in_port]
        if self._forwarding[in_port] or not fifo:
            return
        head = fifo[0]
        out_port = self._output_for(head)
        if out_port is None:
            fifo.popleft()
            self.packets_dropped_no_route += 1
            self.sim.schedule(0.0, self._try_forward, in_port)
            return
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
        head.gone_down = self._next_gone_down(head, out_port)
        bits = (head.packet.size or 0) * 8 + _an1_packet_overhead_bits
        port.send(Cell(vc=0, kind=CellKind.DATA, payload=head), bits=bits)
        self.packets_forwarded += 1
        if fifo:
            self.sim.schedule(0.0, self._try_forward, in_port)

    def _retry(self, in_port: int) -> None:
        self._forwarding[in_port] = False
        self._try_forward(in_port)

    def _output_for(self, queued: "_QueuedPacket") -> Optional[int]:
        computer = self._route_computer
        if computer is None:
            return None
        destination = queued.packet.destination
        # Directly attached host?
        for index, monitor in self.monitors.items():
            if (
                monitor.neighbor is not None
                and monitor.neighbor[0] == destination
                and monitor.verdict is LinkVerdict.WORKING
            ):
                return index
        try:
            dest_switch, _ = computer.attachment(destination)
        except Exception:
            return None
        if dest_switch == self.node_id:
            return None
        hop = computer.orientation.next_hop(
            self.node_id, dest_switch, arrived_downward=queued.gone_down
        )
        if hop is None:
            return None
        _, edge = hop
        return port_on(edge, self.node_id)

    def _next_gone_down(self, queued: "_QueuedPacket", out_port: int) -> bool:
        computer = self._route_computer
        monitor = self.monitors.get(out_port)
        if computer is None or monitor is None or monitor.neighbor is None:
            return queued.gone_down
        neighbor_id, neighbor_port = monitor.neighbor
        if not neighbor_id.is_switch:
            return queued.gone_down
        a = (self.node_id, out_port)
        b = (neighbor_id, neighbor_port)
        edge = (a, b) if a <= b else (b, a)
        try:
            is_up = computer.orientation.is_up_traversal(edge, self.node_id)
        except (KeyError, ValueError):
            return queued.gone_down
        return queued.gone_down or not is_up

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
                kind=CellKind.DATA,
                payload=_QueuedPacket(packet, gone_down=False, enqueued_at=self.sim.now),
            ),
            bits=bits,
        )

    def on_cell(self, port: Port, cell: Cell) -> None:
        if cell.kind is CellKind.DATA:
            queued = cell.payload
            packet = queued.packet
            packet.delivered_at = self.sim.now
            self.delivered.append(packet)
            self.packet_latency.record(packet.latency)
        elif cell.kind is CellKind.PING:
            payload = cell.payload
            port.send(
                Cell(
                    vc=0,
                    kind=CellKind.PING_ACK,
                    payload=make_ack(payload, self.node_id, port.index),
                )
            )
        elif cell.kind in (CellKind.PING_ACK, CellKind.RECONFIG):
            pass
        else:
            raise ValueError(f"AN1 host cannot handle {cell.kind}")


class An1Network:
    """Assembly of an AN1 installation (mirrors :class:`Network`)."""

    def __init__(self, topology, seed: int = 0, config: Optional[An1Config] = None):
        from repro.net.link import Link

        import repro.obs as obs
        from repro.obs import MetricsRegistry

        self.topology = topology
        self.sim = Simulator()
        self.registry = MetricsRegistry()
        cap = obs.active_capture()
        if cap is not None:
            self.sim.tracer = cap.tracer
            cap.adopt(self.registry)
        self.streams = RandomStreams(seed)
        self.config = config if config is not None else An1Config()
        self.switches: Dict[NodeId, An1Switch] = {}
        self.hosts: Dict[NodeId, An1Host] = {}
        self.links: Dict[Edge, object] = {}
        for node in topology.switches():
            self.switches[node] = An1Switch(
                self.sim,
                node,
                self.streams.fork(str(node)),
                config=self.config,
                n_ports=topology.ports_of(node),
                registry=self.registry,
            )
        for node in topology.hosts():
            self.hosts[node] = An1Host(
                self.sim, node, n_ports=topology.ports_of(node),
                registry=self.registry,
            )
        for spec in topology.cables():
            (node_a, pa), (node_b, pb) = spec.endpoints
            dev_a = self.switches.get(node_a) or self.hosts[node_a]
            dev_b = self.switches.get(node_b) or self.hosts[node_b]
            self.links[spec.endpoints] = Link(
                self.sim,
                dev_a.port(pa),
                dev_b.port(pb),
                length_km=spec.length_km,
                bps=AN1_LINK_BPS,
                rng=self.streams.stream(f"link.{node_a}.{pa}.{node_b}.{pb}"),
            )

    def start(self) -> None:
        for switch in self.switches.values():
            switch.start()

    def run(self, duration_us: float) -> None:
        self.sim.run(until=self.sim.now + duration_us)

    def converged(self) -> bool:
        agents = [s.reconfig for s in self.switches.values()]
        if any(a.active for a in agents):
            return False
        views = {a.view for a in agents}
        tags = {a.view_tag for a in agents}
        return len(views) == 1 and len(tags) == 1 and None not in tags

    def run_until_converged(self, timeout_us: float = 1_000_000.0) -> float:
        deadline = self.sim.now + timeout_us
        while self.sim.now < deadline:
            if self.converged():
                return self.sim.now
            self.sim.run(until=min(self.sim.now + 500.0, deadline))
        if self.converged():
            return self.sim.now
        raise RuntimeError("AN1 network failed to converge")

    def metrics_snapshot(self) -> Dict[str, dict]:
        return self.registry.snapshot()

    def total_dropped_on_reconfig(self) -> int:
        return sum(
            s.packets_dropped_reconfig for s in self.switches.values()
        )

    def buffered_packets(self) -> int:
        return sum(s.buffered_packets() for s in self.switches.values())
