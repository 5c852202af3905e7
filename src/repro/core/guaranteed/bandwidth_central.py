"""Bandwidth central: admission control and route choice for CBR circuits.

Section 4: "The request to reserve bandwidth is processed by a network
service called 'bandwidth central'...  Because it resolves all bandwidth
requests, it knows the unreserved capacity of each link in the network.
A new request is granted if there is a path between source and
destination on which each link has enough unreserved bandwidth.
Otherwise, the request must be denied.  Bandwidth central chooses the
route for the new virtual circuit if more than one possibility exists."

As in the first AN2 release, the service here is centralized (it would
live at a switch chosen during reconfiguration -- see
:meth:`repro.net.network.Network.elect_bandwidth_central`), but nothing in
the interface assumes that; the paper notes it "might well be implemented
in a distributed fashion".

Route selection is widest-shortest, one of the PARIS heuristics the
paper points at (Awerbuch et al.): among the shortest feasible paths,
each hop back from the destination takes the predecessor link with the
most residual capacity, which keeps capacity spread out.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._types import NodeId
from repro.constants import FRAME_SLOTS
from repro.net.topology import Edge, TopologyView


class ReservationDenied(Exception):
    """No path with sufficient unreserved bandwidth exists."""


_reservation_ids = itertools.count(1)


@dataclass
class Reservation:
    """A granted bandwidth reservation.

    ``route_nodes`` runs source host, switches..., destination host;
    ``route_edges`` are the cables traversed, in order.  Each switch hop
    also appears in ``switch_hops`` as (switch, in_port, out_port) -- the
    data needed to revise that switch's frame schedule.
    """

    source: NodeId
    destination: NodeId
    cells_per_frame: int
    route_nodes: List[NodeId]
    route_edges: List[Edge]
    switch_hops: List[Tuple[NodeId, int, int]] = field(default_factory=list)
    reservation_id: int = field(default_factory=lambda: next(_reservation_ids))

    @property
    def path_length(self) -> int:
        """Number of switches traversed."""
        return len(self.switch_hops)


class BandwidthCentral:
    """Centralized admission control over a discovered topology."""

    def __init__(
        self,
        view: TopologyView,
        frame_slots: int = FRAME_SLOTS,
        capacities: Optional[Dict[Edge, int]] = None,
    ) -> None:
        """``capacities`` optionally overrides per-edge capacity in
        cells/frame (e.g. a 155 Mbit/s host link carries a quarter of a
        622 Mbit/s trunk's cells per frame time)."""
        self.view = view
        self.frame_slots = frame_slots
        #: residual capacity in cells/frame per (edge, direction) where
        #: direction 0 means "from the lower endpoint toward the higher".
        self._residual: Dict[Tuple[Edge, int], int] = {}
        self._capacity: Dict[Tuple[Edge, int], int] = {}
        #: adjacency over *all* nodes (hosts included): node -> list of
        #: (neighbor, edge).
        self._adjacency: Dict[NodeId, List[Tuple[NodeId, Edge]]] = {}
        for edge in sorted(view.edges):
            (node_a, _), (node_b, _) = edge
            capacity = frame_slots
            if capacities is not None and edge in capacities:
                capacity = capacities[edge]
            self._residual[(edge, 0)] = capacity
            self._residual[(edge, 1)] = capacity
            self._capacity[(edge, 0)] = capacity
            self._capacity[(edge, 1)] = capacity
            self._adjacency.setdefault(node_a, []).append((node_b, edge))
            self._adjacency.setdefault(node_b, []).append((node_a, edge))
        self.reservations: Dict[int, Reservation] = {}
        self.requests_granted = 0
        self.requests_denied = 0

    # ------------------------------------------------------------------
    # capacity bookkeeping
    # ------------------------------------------------------------------
    def _direction(self, edge: Edge, from_node: NodeId) -> int:
        (node_a, _), _ = edge
        return 0 if from_node == node_a else 1

    def residual(self, edge: Edge, from_node: NodeId) -> int:
        """Unreserved cells/frame on ``edge`` leaving ``from_node``."""
        return self._residual[(edge, self._direction(edge, from_node))]

    def _consume(self, route_nodes: List[NodeId], route_edges: List[Edge], cells: int) -> None:
        for from_node, edge in zip(route_nodes, route_edges):
            key = (edge, self._direction(edge, from_node))
            if self._residual[key] < cells:
                raise ReservationDenied(
                    f"link {edge} over-committed during consume (bug)"
                )
            self._residual[key] -= cells

    def _restore(self, route_nodes: List[NodeId], route_edges: List[Edge], cells: int) -> None:
        for from_node, edge in zip(route_nodes, route_edges):
            key = (edge, self._direction(edge, from_node))
            self._residual[key] += cells
            if self._residual[key] > self._capacity[key]:
                raise ValueError(f"released more than reserved on {edge}")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def request(
        self, source: NodeId, destination: NodeId, cells_per_frame: int
    ) -> Reservation:
        """Grant a reservation or raise :class:`ReservationDenied`."""
        if cells_per_frame <= 0:
            raise ValueError(
                f"cells_per_frame must be positive, got {cells_per_frame}"
            )
        if cells_per_frame > self.frame_slots:
            self.requests_denied += 1
            raise ReservationDenied(
                f"{cells_per_frame} cells/frame exceeds the frame size "
                f"{self.frame_slots}"
            )
        if source == destination:
            raise ValueError("source and destination must differ")
        for node in (source, destination):
            if node not in self._adjacency:
                raise ReservationDenied(f"{node} is not attached to the network")

        path = self._find_route(source, destination, cells_per_frame)
        if path is None:
            self.requests_denied += 1
            raise ReservationDenied(
                f"no path {source}->{destination} with {cells_per_frame} "
                "cells/frame unreserved on every link"
            )
        route_nodes, route_edges = path
        self._consume(route_nodes, route_edges, cells_per_frame)
        reservation = Reservation(
            source=source,
            destination=destination,
            cells_per_frame=cells_per_frame,
            route_nodes=route_nodes,
            route_edges=route_edges,
            switch_hops=self._switch_hops(route_nodes, route_edges),
        )
        self.reservations[reservation.reservation_id] = reservation
        self.requests_granted += 1
        return reservation

    def release(self, reservation: Reservation) -> None:
        """Return a reservation's bandwidth to the pool."""
        if reservation.reservation_id not in self.reservations:
            raise KeyError(f"unknown reservation {reservation.reservation_id}")
        del self.reservations[reservation.reservation_id]
        self._restore(
            reservation.route_nodes,
            reservation.route_edges,
            reservation.cells_per_frame,
        )

    # ------------------------------------------------------------------
    def _switch_hops(
        self, route_nodes: List[NodeId], route_edges: List[Edge]
    ) -> List[Tuple[NodeId, int, int]]:
        hops: List[Tuple[NodeId, int, int]] = []
        for position in range(1, len(route_nodes) - 1):
            switch = route_nodes[position]
            in_edge = route_edges[position - 1]
            out_edge = route_edges[position]
            in_port = self._port_on(in_edge, switch)
            out_port = self._port_on(out_edge, switch)
            hops.append((switch, in_port, out_port))
        return hops

    @staticmethod
    def _port_on(edge: Edge, node: NodeId) -> int:
        (node_a, port_a), (node_b, port_b) = edge
        if node == node_a:
            return port_a
        if node == node_b:
            return port_b
        raise ValueError(f"{node} not on edge {edge}")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _find_route(
        self, source: NodeId, destination: NodeId, cells: int
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        """Shortest feasible path, tie-broken widest-first.

        Feasible means every directed link on the path has at least
        ``cells`` unreserved.  BFS over the feasibility-filtered multigraph
        finds distances; the tie-break walks best predecessors.
        """
        # BFS distances over feasible links.
        distance: Dict[NodeId, int] = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == destination:
                break
            # Hosts relay nothing: only the endpoints may be hosts.
            if node.is_host and node != source:
                continue
            for neighbor, edge in self._adjacency.get(node, []):
                if self.residual(edge, node) < cells:
                    continue
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    queue.append(neighbor)
        if destination not in distance:
            return None

        # Walk back from the destination choosing predecessors.
        def best_incoming(node: NodeId) -> Tuple[NodeId, Edge]:
            candidates: List[Tuple[NodeId, Edge]] = []
            for neighbor, edge in self._adjacency[node]:
                if distance.get(neighbor) != distance[node] - 1:
                    continue
                if neighbor.is_host and neighbor != source:
                    continue
                if self.residual(edge, neighbor) < cells:
                    continue
                candidates.append((neighbor, edge))
            if not candidates:
                raise ReservationDenied("BFS predecessor walk failed (bug)")
            return max(
                candidates,
                key=lambda item: (self.residual(item[1], item[0]), item),
            )

        nodes: List[NodeId] = [destination]
        edges: List[Edge] = []
        current = destination
        while current != source:
            predecessor, edge = best_incoming(current)
            nodes.append(predecessor)
            edges.append(edge)
            current = predecessor
        nodes.reverse()
        edges.reverse()
        return nodes, edges

    # ------------------------------------------------------------------
    def total_reserved(self) -> int:
        """Total cells/frame currently reserved across all circuits."""
        return sum(r.cells_per_frame for r in self.reservations.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BandwidthCentral {len(self.reservations)} reservations>"
        )
