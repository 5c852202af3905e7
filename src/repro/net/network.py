"""Assembling and operating a whole AN2 installation.

:class:`Network` instantiates a :class:`~repro.net.topology.Topology`
description into live simulated switches, hosts, and links, then provides
the operator-level verbs the experiments and examples need: boot, wait for
reconfiguration convergence, set up circuits, reserve bandwidth, pull the
plug on links and switches, and read statistics back out.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro._types import NodeId, NodeRef, parse_node_id
from repro.constants import FAST_LINK_BPS
from repro.core.guaranteed.bandwidth_central import (
    BandwidthCentral,
    Reservation,
)
from repro.core.routing.circuits import (
    CircuitState,
    VcAllocator,
    VirtualCircuit,
)
from repro.core.routing.signaling import SetupRequest
from repro.fastpath.driver import FabricSlotDriver
from repro.net.cell import TrafficClass
from repro.net.host import Host, HostConfig
from repro.net.link import Link
from repro.net.topology import Edge, Topology, TopologyView
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.switch.switch import AN2Switch, SwitchConfig

import repro.obs as obs
from repro.obs import FlightRecorder, MetricsRegistry


class NetworkError(Exception):
    """Operational failure: convergence timeout, unknown node..."""


class Network:
    """A running AN2 installation."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        switch_config: Optional[SwitchConfig] = None,
        host_config: Optional[HostConfig] = None,
        drift_ppm: float = 0.0,
    ) -> None:
        """Args:
            topology: the connection pattern to instantiate.
            seed: root of all randomness in the installation.
            switch_config / host_config: shared device configurations
                (hosts read what a link's two ends share from the former).
            drift_ppm: if non-zero, each switch's slot clock rate is drawn
                uniformly from [-drift_ppm, +drift_ppm] (the asynchronous-
                network regime of section 4).

        Drift-free switches tick together on one
        :class:`~repro.fastpath.FabricSlotDriver` wave event per slot
        (section 4's synchronized network); a switch whose clock drifts
        keeps its private slot timer (DESIGN §13).
        """
        self.topology = topology
        self.sim = Simulator()
        self.registry = MetricsRegistry()
        # Always-on flight recorder: bounded rings of recent protocol
        # events (epochs, verdicts, stalls, resync, link state), read
        # only when something dies or a dump is requested.  Lives on a
        # plain Simulator attribute, so the kernel hot loop is untouched.
        self.recorder = FlightRecorder()
        self.sim.recorder = self.recorder
        cap = obs.active_capture()
        if cap is not None:
            # Built inside an observability capture (e.g. pytest
            # --trace-out): trace into its buffer, report our metrics.
            self.sim.tracer = cap.tracer
            cap.adopt(self.registry)
        self.streams = RandomStreams(seed)
        base_config = switch_config if switch_config is not None else SwitchConfig()
        self.switch_config = base_config
        if host_config is None:
            host_config = HostConfig()
        self.host_config = host_config
        self.switches: Dict[NodeId, AN2Switch] = {}
        self.hosts: Dict[NodeId, Host] = {}
        self.links: Dict[Edge, Link] = {}
        self.vc_allocator = VcAllocator()
        self.circuits: Dict[int, VirtualCircuit] = {}
        drift_rng = self.streams.stream("clock_drift")
        driver = FabricSlotDriver(self.sim, base_config.slot_time_us)
        self.slot_driver = driver
        # Whether the wave was engaged, and why a switch was refused, as
        # snapshot-time reads of the driver's plain ints.
        driver_probes = self.registry.node("fabric.slot_driver")
        for name in ("adopted", "refused_drift", "waves", "ticks", "parked"):
            driver_probes.gauge(name, lambda name=name: getattr(driver, name))
        for node in topology.switches():
            config = base_config
            if drift_ppm:
                config = dataclasses.replace(
                    base_config,
                    clock_drift_ppm=drift_rng.uniform(-drift_ppm, drift_ppm),
                )
            self.switches[node] = AN2Switch(
                self.sim,
                node,
                self.streams.fork(str(node)),
                config=config,
                n_ports=topology.ports_of(node),
                registry=self.registry,
            )
            driver.adopt(self.switches[node])
        for node in topology.hosts():
            self.hosts[node] = Host(
                self.sim,
                node,
                self.streams.fork(str(node)),
                base_config,
                config=self.host_config,
                n_ports=topology.ports_of(node),
                registry=self.registry,
            )
        for spec in topology.cables():
            (node_a, pa), (node_b, pb) = spec.endpoints
            port_a = self.node(node_a).port(pa)
            port_b = self.node(node_b).port(pb)
            link = Link(
                self.sim,
                port_a,
                port_b,
                length_km=spec.length_km,
                bps=spec.bps,
                rng=self.streams.stream(f"link.{node_a}.{pa}.{node_b}.{pb}"),
            )
            self.links[spec.endpoints] = link
            self._watch_link(f"link.{node_a}.{pa}-{node_b}.{pb}", link)
        #: what :meth:`fully_reconfigured` compares against -- the main
        #: component's agents and the view they should hold -- until a
        #: link next changes state (links are only made above).
        self._ground_truth: Optional[Tuple[list, TopologyView]] = None
        self._started = False

    def _watch_link(self, label: str, link: Link) -> None:
        """On every state change of ``link``: flight-record it under
        ``label`` and drop the ground truth worked out before it."""

        def observer(_link: Link, state) -> None:
            self._ground_truth = None
            self.recorder.record(
                self.sim.now, label, "link.state", state=state.value
            )

        link.state_observers.append(observer)

    # ==================================================================
    # access
    # ==================================================================
    def node(self, ref: NodeRef):
        node_id = parse_node_id(ref)
        if node_id.is_switch:
            return self.switches[node_id]
        return self.hosts[node_id]

    def switch(self, ref: NodeRef) -> AN2Switch:
        return self.switches[parse_node_id(ref)]

    def host(self, ref: NodeRef) -> Host:
        return self.hosts[parse_node_id(ref)]

    def link_between(self, a: NodeRef, b: NodeRef) -> Link:
        """The (first) cable between two nodes."""
        node_a, node_b = parse_node_id(a), parse_node_id(b)
        for edge, link in sorted(self.links.items()):
            (na, _), (nb, _) = edge
            if {na, nb} == {node_a, node_b}:
                return link
        raise NetworkError(f"no cable between {node_a} and {node_b}")

    @property
    def now(self) -> float:
        return self.sim.now

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Boot every device.  Each switch triggers a reconfiguration once
        its neighbor-discovery pings have answered."""
        if self._started:
            return
        self._started = True
        for switch in self.switches.values():
            switch.start()
        for host in self.hosts.values():
            host.start()

    def run(self, duration_us: float) -> None:
        """Advance simulated time by ``duration_us``."""
        self.sim.run(until=self.sim.now + duration_us)

    def run_until(
        self,
        predicate,
        timeout_us: float = 1_000_000.0,
        check_interval_us: float = 500.0,
    ) -> float:
        """Run until ``predicate()`` holds; returns the time it first held.

        Raises :class:`NetworkError` on timeout.
        """
        deadline = self.sim.now + timeout_us
        while self.sim.now < deadline:
            if predicate():
                return self.sim.now
            self.sim.run(
                until=min(self.sim.now + check_interval_us, deadline)
            )
        if predicate():
            return self.sim.now
        raise NetworkError(f"condition not reached within {timeout_us} us")

    # ==================================================================
    # reconfiguration-level operations
    # ==================================================================
    def converged(self) -> bool:
        """Every switch is idle and every epoch group is self-consistent.

        After a partition, the fragments converge to *different* views;
        each group sharing a view tag must (a) be idle, (b) agree on the
        view, and (c) be exactly the switch set its view describes.  For
        "has the network re-learned reality" (the pull-the-plug demo) use
        :meth:`fully_reconfigured`.
        """
        groups: Dict[object, List] = {}
        for switch in self.switches.values():
            agent = switch.reconfig
            if agent.active or agent.view_tag is None:
                return False
            groups.setdefault(agent.view_tag, []).append(agent)
        for agents in groups.values():
            views = {a.view for a in agents}
            if len(views) != 1:
                return False
            view = agents[0].view
            assert view is not None
            members = {a.node_id for a in agents}
            view_switches = set(view.switches())
            if view_switches:
                if view_switches != members:
                    return False
            elif len(members) != 1:
                return False
        return True

    def main_component_switches(self) -> List[NodeId]:
        """Switches of the largest working partition (ground truth)."""
        adjacency: Dict[NodeId, List[NodeId]] = {
            s: [] for s in self.switches
        }
        for edge, link in self.links.items():
            (na, _), (nb, _) = edge
            if link.working and na.is_switch and nb.is_switch:
                adjacency[na].append(nb)
                adjacency[nb].append(na)
        seen: Dict[NodeId, int] = {}
        components: List[List[NodeId]] = []
        for start in sorted(adjacency):
            if start in seen:
                continue
            component = [start]
            seen[start] = len(components)
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in adjacency[node]:
                    if neighbor not in seen:
                        seen[neighbor] = len(components)
                        component.append(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return sorted(max(components, key=len)) if components else []

    def expected_view_for(self, component: List[NodeId]) -> TopologyView:
        """Working edges a given switch partition should discover."""
        members = set(component)
        edges = set()
        for edge, link in self.links.items():
            if not link.working:
                continue
            (na, _), (nb, _) = edge
            switch_ends = [n for n in (na, nb) if n.is_switch]
            if all(n in members for n in switch_ends) and switch_ends:
                edges.add(edge)
        return TopologyView(frozenset(edges))

    def fully_reconfigured(self) -> bool:
        """The largest working partition is idle and its shared view
        matches physical reality -- the success condition of the paper's
        pull-the-plug demo."""
        if self._ground_truth is None:
            component = self.main_component_switches()
            self._ground_truth = (
                [self.switches[s].reconfig for s in component],
                self.expected_view_for(component),
            )
        agents, expected = self._ground_truth
        if not agents:
            return False
        if any(a.active for a in agents):
            return False
        tags = {a.view_tag for a in agents}
        if len(tags) != 1 or None in tags:
            return False
        views = {a.view for a in agents}
        if len(views) != 1:
            return False
        return agents[0].view == expected

    def run_until_converged(self, timeout_us: float = 1_000_000.0) -> float:
        return self.run_until(self.converged, timeout_us=timeout_us)

    def converged_view(self) -> TopologyView:
        if not self.converged():
            raise NetworkError("network has not converged")
        view = next(iter(self.switches.values())).reconfig.view
        assert view is not None
        return view

    def reconfig_root(self) -> NodeId:
        """The root of the winning reconfiguration's spanning tree."""
        if not self.converged():
            raise NetworkError("network has not converged")
        tag = next(iter(self.switches.values())).reconfig.view_tag
        assert tag is not None
        return tag.initiator

    def expected_view(self) -> TopologyView:
        """Ground truth: the working cables (the oracle for tests)."""
        edges = {
            edge for edge, link in self.links.items() if link.working
        }
        return TopologyView(frozenset(edges))

    # ==================================================================
    # circuits
    # ==================================================================
    def setup_circuit(
        self,
        source: NodeRef,
        destination: NodeRef,
        wait: bool = True,
        timeout_us: float = 100_000.0,
    ) -> VirtualCircuit:
        """Open a best-effort circuit; optionally run until established."""
        src, dst = parse_node_id(source), parse_node_id(destination)
        vc = self.vc_allocator.allocate()
        circuit = VirtualCircuit(
            vc=vc,
            source=src,
            destination=dst,
            traffic_class=TrafficClass.BEST_EFFORT,
        )
        self.circuits[vc] = circuit
        self.host(src).open_circuit(vc, dst)
        if wait:
            dst_host = self.host(dst)
            self.run_until(
                lambda: vc in dst_host.incoming_circuits,
                timeout_us=timeout_us,
                check_interval_us=100.0,
            )
            circuit.state = CircuitState.ESTABLISHED
            circuit.established_at = self.sim.now
        return circuit

    def setup_multicast(
        self,
        source: NodeRef,
        destinations,
        wait: bool = True,
        timeout_us: float = 200_000.0,
    ) -> VirtualCircuit:
        """Open a best-effort multicast circuit to a set of hosts.

        A single multicast setup cell branches hop by hop into the
        delivery tree (see :mod:`repro.core.routing.multicast`).
        """
        from repro.core.routing.multicast import MulticastSetupRequest
        from repro.net.cell import Cell, CellKind

        src = parse_node_id(source)
        group = frozenset(parse_node_id(d) for d in destinations)
        if not group:
            raise ValueError("multicast needs at least one destination")
        if src in group:
            raise ValueError("source cannot be in its own group")
        vc = self.vc_allocator.allocate()
        circuit = VirtualCircuit(
            vc=vc,
            source=src,
            destination=min(group),
            group=group,
            traffic_class=TrafficClass.BEST_EFFORT,
        )
        self.circuits[vc] = circuit
        host = self.host(src)
        host.open_circuit(vc, min(group), send_setup=False)
        host.active_port.send(
            Cell(
                vc=1,
                kind=CellKind.SIGNALING,
                payload=MulticastSetupRequest(
                    vc=vc, source=src, destinations=group
                ),
            )
        )
        if wait:
            members = [self.host(d) for d in sorted(group)]
            self.run_until(
                lambda: all(vc in m.incoming_circuits for m in members),
                timeout_us=timeout_us,
                check_interval_us=100.0,
            )
            circuit.state = CircuitState.ESTABLISHED
            circuit.established_at = self.sim.now
        return circuit

    def reserve_bandwidth(
        self,
        source: NodeRef,
        destination: NodeRef,
        cells_per_frame: int,
        central: Optional[BandwidthCentral] = None,
    ) -> Tuple[VirtualCircuit, Reservation]:
        """Admit and install a guaranteed circuit.

        Bandwidth central runs at a switch chosen during reconfiguration;
        its decisions reach the on-path switches as control messages.  We
        model the notification latency as one control delay per hop from
        the central switch (the bookkeeping itself is exact -- see
        DESIGN.md's substitution table).
        """
        src, dst = parse_node_id(source), parse_node_id(destination)
        if central is None:
            central = self.bandwidth_central()
        reservation = central.request(src, dst, cells_per_frame)
        vc = self.vc_allocator.allocate()
        circuit = VirtualCircuit(
            vc=vc,
            source=src,
            destination=dst,
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=cells_per_frame,
        )
        self.circuits[vc] = circuit
        delay = self.switch_config.control_delay_us

        # Install frame-schedule reservations and routing entries at each
        # hop, with increasing notification latency along the path.
        for hop_index, (switch_id, in_port, out_port) in enumerate(
            reservation.switch_hops
        ):
            switch = self.switches[switch_id]
            request = SetupRequest(
                vc=vc,
                source=src,
                destination=dst,
                traffic_class=TrafficClass.GUARANTEED,
            )
            notify_at = delay * (hop_index + 1)
            self.sim.schedule(
                notify_at, switch.add_reservation, in_port, out_port,
                cells_per_frame,
            )
            self.sim.schedule(
                notify_at, switch.install_circuit, vc, in_port, out_port,
                request,
            )
        # The sending host paces at the reserved rate; the receiving host
        # learns of the circuit like any setup.
        self.host(src).open_circuit(
            vc,
            dst,
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=cells_per_frame,
            send_setup=False,
        )
        dst_host = self.host(dst)
        setup = SetupRequest(
            vc=vc, source=src, destination=dst,
            traffic_class=TrafficClass.GUARANTEED,
        )
        self.sim.schedule(
            delay * (len(reservation.switch_hops) + 1),
            dst_host._accept_signaling,
            setup,
        )
        circuit.state = CircuitState.ESTABLISHED
        circuit.established_at = self.sim.now
        return circuit, reservation

    def reserve_bandwidth_distributed(
        self,
        source: NodeRef,
        destination: NodeRef,
        cells_per_frame: int,
        wait: bool = True,
        timeout_us: float = 200_000.0,
    ) -> Tuple[VirtualCircuit, str]:
        """Admit a guaranteed circuit with NO central service.

        A ``ReserveRequest`` walks the path hop by hop; each switch
        admits against its own local ledger (see
        :mod:`repro.core.guaranteed.distributed`).  Returns the circuit
        and the outcome string ("granted" or "rejected: <reason>").
        """
        from repro.core.guaranteed.distributed import ReserveRequest
        from repro.net.cell import Cell, CellKind

        src, dst = parse_node_id(source), parse_node_id(destination)
        vc = self.vc_allocator.allocate()
        circuit = VirtualCircuit(
            vc=vc,
            source=src,
            destination=dst,
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=cells_per_frame,
        )
        self.circuits[vc] = circuit
        host = self.host(src)
        host.open_circuit(
            vc,
            dst,
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=cells_per_frame,
            send_setup=False,
        )
        host.active_port.send(
            Cell(
                vc=1,
                kind=CellKind.SIGNALING,
                payload=ReserveRequest(
                    vc=vc,
                    source=src,
                    destination=dst,
                    cells_per_frame=cells_per_frame,
                ),
            )
        )
        if not wait:
            return circuit, "pending"
        self.run_until(
            lambda: vc in host.reservation_outcomes,
            timeout_us=timeout_us,
            check_interval_us=100.0,
        )
        outcome = host.reservation_outcomes[vc]
        if outcome == "granted":
            circuit.state = CircuitState.ESTABLISHED
            circuit.established_at = self.sim.now
        else:
            circuit.state = CircuitState.TORN_DOWN
            host.close_circuit(vc, send_teardown=False)
        return circuit, outcome

    def bandwidth_central(
        self, heuristic: str = "widest_shortest"
    ) -> BandwidthCentral:
        """Build the admission service over the current converged view.

        "For the first realization of AN2, network central resides at a
        single switch, chosen during reconfiguration" -- the root.  Its
        identity only affects notification latency in this model.
        """
        view = self.converged_view()
        capacities: Dict[Edge, int] = {}
        frame_slots = self.switch_config.frame_slots
        for edge, link in self.links.items():
            capacities[edge] = max(
                1, int(frame_slots * link.bps / FAST_LINK_BPS)
            )
        return BandwidthCentral(
            view,
            frame_slots=frame_slots,
            heuristic=heuristic,
            capacities=capacities,
        )

    # ==================================================================
    # fault injection
    # ==================================================================
    def fail_link(self, a: NodeRef, b: NodeRef) -> Link:
        link = self.link_between(a, b)
        link.fail()
        return link

    def restore_link(self, a: NodeRef, b: NodeRef) -> Link:
        link = self.link_between(a, b)
        link.restore()
        return link

    def crash_switch(self, ref: NodeRef) -> List[Link]:
        """Pull the plug on a switch: every cable to it goes dark."""
        node = parse_node_id(ref)
        failed = []
        for edge, link in self.links.items():
            (na, _), (nb, _) = edge
            if node in (na, nb) and link.working:
                link.fail()
                failed.append(link)
        return failed

    def restore_switch(self, ref: NodeRef) -> List[Link]:
        node = parse_node_id(ref)
        restored = []
        for edge, link in self.links.items():
            (na, _), (nb, _) = edge
            if node in (na, nb) and not link.working:
                link.restore()
                restored.append(link)
        return restored

    # ==================================================================
    def metrics_snapshot(self) -> Dict[str, dict]:
        """Plain-dict state of every registered probe (see
        :class:`~repro.obs.registry.MetricsRegistry`)."""
        return self.registry.snapshot()

    def total_cells_forwarded(self) -> int:
        return sum(s.stats.cells_forwarded for s in self.switches.values())

    def total_cells_dropped(self) -> int:
        """User-visible loss: switch-level drops plus DATA cells lost on
        dead links.  Control cells dying on a dead link (the monitors
        keep pinging it) are telemetry, not service loss."""
        switch_drops = sum(s.stats.cells_dropped for s in self.switches.values())
        link_drops = sum(l.data_cells_dropped for l in self.links.values())
        return switch_drops + link_drops

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Network {len(self.switches)} switches, {len(self.hosts)} "
            f"hosts, {len(self.links)} links, t={self.sim.now:.1f}us>"
        )
