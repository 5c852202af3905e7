"""Route computation over a discovered topology view.

A :class:`RouteComputer` wraps a view with the up*/down* orientation and
answers host-to-host and switch-to-switch routing questions.  Because
orientations and tie-breaks are deterministic functions of (view, root),
all switches route consistently -- so the switches of one installation
that complete the same epoch view from the same initiator share one
computer, built by whichever of them completes it first (see
``SwitchNode._on_topology_ready``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro._types import NodeId
from repro.core.routing.updown import UpDownOrientation
from repro.net.topology import Edge, TopologyView


class RoutingError(Exception):
    """No usable route (disconnection, unknown host, illegal path)."""


@dataclass
class Route:
    """A concrete end-to-end path.

    ``nodes`` runs source host, switches..., destination host (or switch
    to switch for transit segments); ``edges`` are the cables used, and
    ``switch_hops`` lists (switch, in_port, out_port) for every switch on
    the path -- what the signaling layer installs into routing tables.
    """

    nodes: List[NodeId]
    edges: List[Edge]
    switch_hops: List[Tuple[NodeId, int, int]]

    @property
    def n_switches(self) -> int:
        return len(self.switch_hops)

    def __len__(self) -> int:
        return len(self.edges)


def port_on(edge: Edge, node: NodeId) -> int:
    """The port number ``node`` uses on ``edge``."""
    (node_a, port_a), (node_b, port_b) = edge
    if node == node_a:
        return port_a
    if node == node_b:
        return port_b
    raise ValueError(f"{node} is not an endpoint of {edge}")


def switch_hops_of(
    nodes: List[NodeId], edges: List[Edge]
) -> List[Tuple[NodeId, int, int]]:
    """Derive per-switch (in_port, out_port) pairs from a node/edge path."""
    hops: List[Tuple[NodeId, int, int]] = []
    for position in range(len(nodes)):
        node = nodes[position]
        if not node.is_switch:
            continue
        if position == 0 or position == len(nodes) - 1:
            continue  # endpoint switches have no through-hop
        in_edge = edges[position - 1]
        out_edge = edges[position]
        hops.append((node, port_on(in_edge, node), port_on(out_edge, node)))
    return hops


class RouteComputer:
    """Host-to-host routes over one view, optionally up*/down* restricted.

    ``epoch`` labels the reconfiguration epoch that built this computer
    (the stringified :class:`~repro.core.reconfig.epoch.EpochTag`); a
    later epoch that agrees on the same view from the same initiator
    reuses it, label and all.  The orientation's route cache lives as
    long as the computer: a new ``(view, root)`` gets a new computer and
    an empty memo.
    """

    def __init__(
        self,
        view: TopologyView,
        root: NodeId,
        restrict_updown: bool = True,
        epoch: Optional[str] = None,
    ) -> None:
        self.view = view
        self.root = root
        self.restrict_updown = restrict_updown
        self.epoch = epoch
        self.orientation = UpDownOrientation(view, root, epoch=epoch)
        self._host_ports = view.host_ports()

    def report_to(self, probes) -> None:
        """Point ``probes``' ``route_cache_hits`` / ``route_cache_misses``
        gauges at this computer's memo counters (snapshot-time reads; the
        routing hot path is untouched).  The gauges hold the orientation,
        not the computer, so they do not keep a shared computer alive."""
        orientation = self.orientation
        probes.gauge("route_cache_hits", lambda: orientation.cache_hits)
        probes.gauge("route_cache_misses", lambda: orientation.cache_misses)

    # ------------------------------------------------------------------
    def attachment(
        self, host: NodeId, preferred_port: int = 0
    ) -> Tuple[NodeId, Edge]:
        """The (switch, cable) a host's traffic enters the network through.

        Prefers the host's port ``preferred_port`` (the active link; "Only
        one link is in active use at any time"), falling back to any other
        attachment.
        """
        attachments = self._host_ports.get(host)
        if not attachments:
            raise RoutingError(f"host {host} has no attachments in the view")
        for host_port, switch, switch_port in attachments:
            if host_port == preferred_port:
                return switch, self._edge_for(host, host_port, switch, switch_port)
        host_port, switch, switch_port = attachments[0]
        return switch, self._edge_for(host, host_port, switch, switch_port)

    def _edge_for(
        self, host: NodeId, host_port: int, switch: NodeId, switch_port: int
    ) -> Edge:
        a, b = (host, host_port), (switch, switch_port)
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    def host_route(
        self,
        source: NodeId,
        destination: NodeId,
        source_port: int = 0,
        destination_port: int = 0,
    ) -> Route:
        """Shortest (legal) route between two hosts."""
        if not (source.is_host and destination.is_host):
            raise RoutingError("host_route requires two hosts")
        if source == destination:
            raise RoutingError("source and destination hosts are identical")
        src_switch, src_edge = self.attachment(source, source_port)
        dst_switch, dst_edge = self.attachment(destination, destination_port)
        switch_path = self.switch_route(src_switch, dst_switch)
        nodes = [source] + switch_path[0] + [destination]
        edges = [src_edge] + switch_path[1] + [dst_edge]
        return Route(nodes, edges, switch_hops_of(nodes, edges))

    def switch_route(
        self, source: NodeId, destination: NodeId
    ) -> Tuple[List[NodeId], List[Edge]]:
        """Shortest (legal) switch-to-switch path as (nodes, edges)."""
        if self.restrict_updown:
            path = self.orientation.shortest_legal_path(source, destination)
        else:
            path = self.orientation.shortest_unrestricted_path(
                source, destination
            )
        if path is None:
            raise RoutingError(
                f"no {'legal ' if self.restrict_updown else ''}path "
                f"{source} -> {destination}"
            )
        return path

    def path_inflation(
        self, source: NodeId, destination: NodeId
    ) -> Tuple[int, int]:
        """(restricted length, unrestricted length) -- the E10 metric for
        "Up*/down* routing may eliminate some potential routes and thus
        have a negative effect on performance"."""
        legal = self.orientation.shortest_legal_path(source, destination)
        free = self.orientation.shortest_unrestricted_path(source, destination)
        if legal is None or free is None:
            raise RoutingError(f"{source} and {destination} are disconnected")
        return len(legal[1]), len(free[1])
