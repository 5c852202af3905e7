"""Assembling and operating a whole AN2 installation.

:class:`Network` instantiates a :class:`~repro.net.topology.Topology`
description into live AN2 switches and hosts on one slot wave and cables
them.  The verbs any installation has -- boot, wait for reconfiguration
convergence, pull the plug on links and switches -- are
:class:`~repro.net.installation.Installation`'s; this adds the AN2 ones:
set up circuits, reserve bandwidth, and read cell statistics back out.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro._types import NodeRef, parse_node_id
from repro.constants import FAST_CELL_TIME_US, FAST_LINK_BPS
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
from repro.net.installation import Installation, NetworkError
from repro.net.topology import Edge, Topology
from repro.switch.switch import AN2Switch, SwitchConfig

__all__ = ["Network", "NetworkError"]


class Network(Installation):
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
        :class:`~repro.fastpath.driver.FabricSlotDriver` wave event per slot
        (section 4's synchronized network); a switch whose clock drifts
        rides a wave of its own at its local slot time (DESIGN §13).
        """
        super().__init__(topology, seed)
        base_config = switch_config if switch_config is not None else SwitchConfig()
        self.switch_config = base_config
        if host_config is None:
            host_config = HostConfig()
        self.host_config = host_config
        self.vc_allocator = VcAllocator()
        self.circuits: Dict[int, VirtualCircuit] = {}
        drift_rng = self.streams.stream("clock_drift")
        driver = FabricSlotDriver(self.sim, FAST_CELL_TIME_US)
        self.slot_driver = driver
        # How much the waves walked, drifting switches' own included, as
        # snapshot-time reads of the drivers' plain ints.
        driver_probes = self.registry.node("fabric.slot_driver")
        driver_probes.gauge("adopted", lambda: driver.adopted)
        for at, name in enumerate(("waves", "ticks")):
            driver_probes.gauge(name, lambda at=at: driver.counts()[at])
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
                route_computers=self.route_computers,
                slot_driver=driver,
            )
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
        self._cable()
        #: (view tag, central) behind :meth:`reserve_bandwidth`'s default.
        self._central: Optional[Tuple[object, BandwidthCentral]] = None

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

        Without ``central``, admission runs against the network's one
        central of the current epoch, built on first use and kept while
        the view tag is unchanged, so every call sees the reservations
        admitted before it.  A request that would over-commit a link
        raises :class:`ReservationDenied` here and schedules nothing.
        """
        src, dst = parse_node_id(source), parse_node_id(destination)
        if central is None:
            central = self._epoch_central()
        host = self.host(src)
        reservation = central.request(
            src, dst, cells_per_frame,
            first_edge=host.edge_on_port(host.active_port_index),
        )
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
                request, cells_per_frame,
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

    def bandwidth_central(self) -> BandwidthCentral:
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
            view, frame_slots=frame_slots, capacities=capacities
        )

    def _epoch_central(self) -> BandwidthCentral:
        """The default admission service: one per epoch (view tag)."""
        tag = self.main_agent().view_tag  # raises unless converged
        if self._central is None or self._central[0] != tag:
            self._central = (tag, self.bandwidth_central())
        return self._central[1]

    def total_cells_dropped(self) -> int:
        """User-visible loss: switch-level drops plus DATA cells lost on
        dead links.  Control cells dying on a dead link (the monitors
        keep pinging it) are telemetry, not service loss."""
        switch_drops = sum(s.stats.cells_dropped for s in self.switches.values())
        link_drops = sum(l.data_cells_dropped for l in self.links.values())
        return switch_drops + link_drops
