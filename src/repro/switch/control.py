"""The control plane both switch generations run.

Section 2's distributed algorithms are software on the switch, and the
same on AN1 and AN2: ping the neighbours and let a skeptic judge each
link (:class:`~repro.net.node.Node`'s monitors), run epoch
reconfiguration over the working switch links, and route the epoch's
circuits or packets on one up*/down* orientation of the view it agreed
on.  :class:`SwitchNode` is that much; a switch generation adds its data
plane and its receive path.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro._types import NodeId
from repro.core.reconfig.algorithm import ReconfigurationAgent
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.paths import RouteComputer
from repro.net.cell import Cell, CellKind
from repro.net.node import Node
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams


class SwitchNode(Node):
    """Port monitors, the reconfiguration agent and the epoch's routes.

    ``config`` is the device config: its monitoring fields,
    ``control_delay_us``, ``boot_reconfig_delay_us``,
    ``reconfig_watchdog_us`` and (unless ``n_ports`` is given)
    ``n_ports`` are read here.  ``route_computers`` is the installation's
    shared map of epoch route computers (see :meth:`_on_topology_ready`).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        streams: RandomStreams,
        config,
        n_ports: Optional[int] = None,
        route_computers: Optional[weakref.WeakValueDictionary] = None,
    ) -> None:
        super().__init__(
            sim, node_id, n_ports if n_ports is not None else config.n_ports
        )
        self.streams = streams
        self.config = config
        self.reconfig = ReconfigurationAgent(
            sim, node_id, transport=self, watchdog_us=config.reconfig_watchdog_us
        )
        self.reconfig.ready.subscribe(self._on_topology_ready)
        self._route_computer: Optional[RouteComputer] = None
        #: epoch route computers by ``(view.edges, tag.initiator)``: the
        #: installation hands one map to all its switches, a switch built
        #: alone keeps its own.  Weak values: an entry lives while some
        #: switch routes on it.
        self._route_computers = (
            route_computers
            if route_computers is not None
            else weakref.WeakValueDictionary()
        )
        #: registry node the epoch's route computer reports its cache
        #: counters to, if any.
        self._routing_probes = None
        self._started = False

    def start(self) -> None:
        """Boot: monitors on every cabled port, then the first
        reconfiguration once neighbour discovery has had time to answer."""
        if self._started:
            return
        self._started = True
        jitter = self.streams.stream(f"{self.node_id}.jitter")
        self.start_monitors(self.config, jitter)
        self.sim.schedule(
            self.config.boot_reconfig_delay_us
            + jitter.uniform(0.0, self.config.ping_interval_us),
            self._boot_trigger,
        )

    def _boot_trigger(self) -> None:
        self.reconfig.trigger()

    def _on_verdict(
        self, port_index: int, verdict: LinkVerdict, now: float
    ) -> None:
        # "State changes in host links do not trigger reconfiguration."
        neighbor = self.neighbor(port_index)
        if neighbor is not None and neighbor[0].is_switch:
            self.sim.schedule(
                self.config.control_delay_us, self.reconfig.trigger
            )

    # ==================================================================
    # ReconfigTransport interface (local_edges is the Node's)
    # ==================================================================
    def reconfig_ports(self) -> List[int]:
        """Ports cabled to working, identified switch neighbours."""
        eligible = []
        for index in self.monitors:
            neighbor = self.working_neighbor(index)
            if neighbor is not None and neighbor[0].is_switch:
                eligible.append(index)
        return eligible

    def send_reconfig(self, port_index: int, message) -> None:
        self.ports[port_index].send(
            Cell(vc=0, kind=CellKind.RECONFIG, payload=message)
        )

    def _on_topology_ready(self, value) -> bool:
        """An epoch completed: route on the orientation of its view rooted
        at the epoch's initiator (or, if the initiator is not in the view,
        its last switch); no routes if the view admits none.

        The orientation is a function of ``(view, initiator)`` alone, so
        every switch of the installation that completes the same pair
        routes on one shared computer.  Returns whether this switch built
        it."""
        tag, view = value
        key = (view.edges, tag.initiator)
        computer = self._route_computers.get(key)
        built = False
        if computer is None:
            computer = self._build_route_computer(tag, view)
            if computer is not None:
                self._route_computers[key] = computer
                built = True
        self._route_computer = computer
        if computer is not None and self._routing_probes is not None:
            computer.report_to(self._routing_probes)
        return built

    def route_computer(self) -> Optional[RouteComputer]:
        """The epoch's route computer (``None`` before the first epoch
        or when the agreed view admits no routes)."""
        return self._route_computer

    @staticmethod
    def _build_route_computer(tag, view) -> Optional[RouteComputer]:
        """A computer for ``view`` rooted as above, or ``None`` if the
        view has no switches or is not connected from the root."""
        switches = view.switches()
        if not switches:
            return None
        root = tag.initiator if tag.initiator in switches else switches[-1]
        try:
            return RouteComputer(view, root, epoch=str(tag))
        except ValueError:
            return None
