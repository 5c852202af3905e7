"""What every installation does, whichever switches it is built from.

:class:`Installation` owns the simulator, the metrics registry, the
flight recorder and the cables of a
:class:`~repro.net.topology.Topology`, and provides the operator verbs
that do not care which switch generation runs: boot, run, wait for the
reconfiguration to converge, read the agreed view, pull the plug on
links and switches.  :class:`~repro.net.network.Network` (AN2) and
:class:`~repro.switch.an1.An1Network` (AN1) build their own devices into
it and call :meth:`Installation._cable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._types import NodeId, NodeRef, parse_node_id
from repro.net.link import Link
from repro.net.topology import Edge, Topology, TopologyView
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams

import repro.obs as obs
from repro.obs import FlightRecorder, MetricsRegistry


class NetworkError(Exception):
    """Operational failure: convergence timeout, unknown node..."""


class Installation:
    """Switches, hosts and links of one topology on one simulator."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
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
        self.switches: Dict[NodeId, object] = {}
        self.hosts: Dict[NodeId, object] = {}
        self.links: Dict[Edge, Link] = {}
        #: what :meth:`fully_reconfigured` compares against -- the main
        #: component's agents and the view they should hold -- until a
        #: link next changes state.
        self._ground_truth: Optional[Tuple[list, TopologyView]] = None
        self._started = False

    def _cable(self, bps: Optional[float] = None) -> None:
        """Join the devices built so far with one :class:`Link` per
        cable of the topology, at ``bps`` or else the cable's own rate."""
        for spec in self.topology.cables():
            (node_a, pa), (node_b, pb) = spec.endpoints
            link = Link(
                self.sim,
                self.node(node_a).port(pa),
                self.node(node_b).port(pb),
                length_km=spec.length_km,
                bps=spec.bps if bps is None else bps,
                rng=self.streams.stream(f"link.{node_a}.{pa}.{node_b}.{pb}"),
            )
            self.links[spec.endpoints] = link
            self._watch_link(link)

    def _watch_link(self, link: Link) -> None:
        """On every state change of ``link``: note it and drop the
        ground truth worked out before it."""

        def observer(_link: Link, state) -> None:
            self._ground_truth = None
            self.sim.note("link", link.label, "link.state", state=state.value)

        link.state_observers.append(observer)

    # ==================================================================
    # access
    # ==================================================================
    def node(self, ref: NodeRef):
        node_id = parse_node_id(ref)
        if node_id.is_switch:
            return self.switches[node_id]
        return self.hosts[node_id]

    def switch(self, ref: NodeRef):
        return self.switches[parse_node_id(ref)]

    def host(self, ref: NodeRef):
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

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {len(self.switches)} switches, "
            f"{len(self.hosts)} hosts, {len(self.links)} links, "
            f"t={self.sim.now:.1f}us>"
        )
