"""Topology descriptions and generators.

AN1/AN2 switches "can be connected in an arbitrary topology; network
software detects the connection pattern and determines the paths to be
used" (section 1).  Two representations live here:

- :class:`Topology` -- a *declarative* connection pattern (which switches,
  which hosts, which cables) used to instantiate simulated networks and as
  ground truth in tests,
- :class:`TopologyView` -- a *snapshot* of the connection pattern as
  discovered at runtime; this is the value the reconfiguration algorithm
  computes and distributes, and the routing layer consumes.

Generators cover the shapes the experiments need: lines, rings, grids,
random connected graphs with redundancy, and an SRC-style installation in
the spirit of the paper's Figure 1 (dual-homed hosts, richly-connected
switch core).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro._types import NodeId, NodeRef, host_id, parse_node_id, switch_id
from repro.constants import AN2_SWITCH_PORTS, FAST_LINK_BPS, SLOW_LINK_BPS
from repro.sim.random import derived_stream


class TopologyError(Exception):
    """Invalid topology construction (port exhaustion, self-loop...)."""


#: One end of a cable: (node, port index).
Endpoint = Tuple[NodeId, int]
#: A cable, with endpoints in sorted order for canonical representation.
Edge = Tuple[Endpoint, Endpoint]


def _normalize(a: Endpoint, b: Endpoint) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass
class CableSpec:
    """Physical parameters for one cable."""

    endpoints: Edge
    length_km: float = 0.1
    bps: float = FAST_LINK_BPS


class Topology:
    """A mutable description of an installation."""

    def __init__(self) -> None:
        self._switch_ports: Dict[NodeId, int] = {}
        self._hosts: Set[NodeId] = set()
        self._cables: Dict[Edge, CableSpec] = {}
        self._used_ports: Dict[NodeId, Set[int]] = {}
        #: Set by :meth:`random_connected`: how many redundant cables were
        #: requested and how many actually landed (port exhaustion can
        #: leave a shortfall; scale experiments must be able to see it).
        self.extra_edges_requested: int = 0
        self.extra_edges_added: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_switch(self, num: int, ports: int = AN2_SWITCH_PORTS) -> NodeId:
        node = switch_id(num)
        if node in self._switch_ports:
            raise TopologyError(f"switch {node} already present")
        self._switch_ports[node] = ports
        self._used_ports[node] = set()
        return node

    def add_host(self, num: int, ports: int = 2) -> NodeId:
        """Hosts default to two ports: an active link and an alternate."""
        node = host_id(num)
        if node in self._hosts:
            raise TopologyError(f"host {node} already present")
        self._hosts.add(node)
        self._switch_ports[node] = ports
        self._used_ports[node] = set()
        return node

    def connect(
        self,
        a: NodeRef,
        b: NodeRef,
        length_km: float = 0.1,
        bps: Optional[float] = None,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Edge:
        """Cable ``a`` to ``b``, auto-assigning free ports unless given.

        Host links default to the 155 Mbit/s rate and switch-to-switch
        trunks to 622 Mbit/s, per section 1.
        """
        node_a, node_b = parse_node_id(a), parse_node_id(b)
        if node_a == node_b:
            raise TopologyError(f"self-loop on {node_a}")
        for node in (node_a, node_b):
            if node not in self._switch_ports:
                raise TopologyError(f"unknown node {node}")
        pa = self._claim_port(node_a, port_a)
        pb = self._claim_port(node_b, port_b)
        edge = _normalize((node_a, pa), (node_b, pb))
        if bps is None:
            host_link = node_a.is_host or node_b.is_host
            bps = SLOW_LINK_BPS if host_link else FAST_LINK_BPS
        self._cables[edge] = CableSpec(edge, length_km=length_km, bps=bps)
        return edge

    def _claim_port(self, node: NodeId, port: Optional[int]) -> int:
        used = self._used_ports[node]
        capacity = self._switch_ports[node]
        if port is None:
            for candidate in range(capacity):
                if candidate not in used:
                    port = candidate
                    break
            else:
                raise TopologyError(f"{node} has no free ports")
        if not 0 <= port < capacity:
            raise TopologyError(f"{node} has no port {port}")
        if port in used:
            raise TopologyError(f"{node} port {port} already cabled")
        used.add(port)
        return port

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def switches(self) -> List[NodeId]:
        return sorted(n for n in self._switch_ports if n.is_switch)

    def hosts(self) -> List[NodeId]:
        return sorted(self._hosts)

    def ports_of(self, node: NodeRef) -> int:
        return self._switch_ports[parse_node_id(node)]

    def cables(self) -> List[CableSpec]:
        return [self._cables[e] for e in sorted(self._cables)]

    def switch_edges(self) -> List[Edge]:
        """Cables whose both ends are switches."""
        return [
            e
            for e in sorted(self._cables)
            if e[0][0].is_switch and e[1][0].is_switch
        ]

    def neighbors(self, node: NodeRef) -> List[NodeId]:
        target = parse_node_id(node)
        found: List[NodeId] = []
        for (na, _), (nb, _) in self._cables:
            if na == target:
                found.append(nb)
            elif nb == target:
                found.append(na)
        return sorted(found)

    def is_switch_connected(self) -> bool:
        """True when the switch-to-switch graph is connected."""
        switches = self.switches()
        if len(switches) <= 1:
            return True
        adjacency: Dict[NodeId, Set[NodeId]] = {s: set() for s in switches}
        for (na, _), (nb, _) in self.switch_edges():
            adjacency[na].add(nb)
            adjacency[nb].add(na)
        seen = {switches[0]}
        frontier = [switches[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(switches)

    def view(self) -> "TopologyView":
        """The ground-truth snapshot (what a perfect discovery would find)."""
        return TopologyView(frozenset(self._cables))

    # ------------------------------------------------------------------
    # generators
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, n_switches: int, length_km: float = 0.1) -> "Topology":
        """Switches in a chain: the reconfiguration worst case."""
        topo = cls()
        for i in range(n_switches):
            topo.add_switch(i)
        for i in range(n_switches - 1):
            topo.connect(switch_id(i), switch_id(i + 1), length_km=length_km)
        return topo

    @classmethod
    def ring(cls, n_switches: int, length_km: float = 0.1) -> "Topology":
        if n_switches < 3:
            # The closing cable would be a duplicate (n=2) or a self-loop
            # (n=1); silently returning a line here used to mask broken
            # experiment setups, so refuse instead.
            raise TopologyError(
                f"ring needs at least 3 switches, got {n_switches} "
                "(use Topology.line for smaller chains)"
            )
        topo = cls.line(n_switches, length_km=length_km)
        topo.connect(switch_id(n_switches - 1), switch_id(0), length_km=length_km)
        return topo

    @classmethod
    def star(cls, n_leaves: int, length_km: float = 0.1) -> "Topology":
        """One hub switch with ``n_leaves`` leaf switches."""
        topo = cls()
        hub = topo.add_switch(0)
        for i in range(1, n_leaves + 1):
            leaf = topo.add_switch(i)
            topo.connect(hub, leaf, length_km=length_km)
        return topo

    @classmethod
    def grid(cls, rows: int, cols: int, length_km: float = 0.1) -> "Topology":
        """A rows x cols mesh of switches (redundant paths everywhere)."""
        topo = cls()
        for r in range(rows):
            for c in range(cols):
                topo.add_switch(r * cols + c)
        for r in range(rows):
            for c in range(cols):
                here = switch_id(r * cols + c)
                if c + 1 < cols:
                    topo.connect(here, switch_id(r * cols + c + 1), length_km=length_km)
                if r + 1 < rows:
                    topo.connect(here, switch_id((r + 1) * cols + c), length_km=length_km)
        return topo

    @classmethod
    def random_connected(
        cls,
        n_switches: int,
        extra_edges: int = 0,
        rng: Optional[random.Random] = None,
        length_km: float = 0.1,
    ) -> "Topology":
        """A random spanning tree plus ``extra_edges`` redundant cables.

        With no explicit ``rng``, a deterministic per-generator substream
        from :func:`repro.sim.random.derived_stream` is used.  (The old
        fallback was a shared ``random.Random(0)``, which correlated the
        default topology with every other component's default draws;
        passing an explicit ``rng`` is unchanged and preferred.)

        When the attempt budget or the port supply runs out before all
        ``extra_edges`` redundant cables land, the shortfall is recorded
        on the returned topology (``extra_edges_requested`` vs
        ``extra_edges_added``) and a :class:`RuntimeWarning` is issued --
        a scale experiment asking for a fat fabric must not silently run
        on a thin one.
        """
        rng = rng if rng is not None else derived_stream("topology.random_connected")
        topo = cls()
        for i in range(n_switches):
            topo.add_switch(i)
        # Random spanning tree: attach each new switch to a random earlier one.
        for i in range(1, n_switches):
            parent = rng.randrange(i)
            topo.connect(switch_id(parent), switch_id(i), length_km=length_km)
        present: Set[FrozenSet[int]] = {
            frozenset((a[0].num, b[0].num)) for a, b in topo.switch_edges()
        }
        attempts = 0
        added = 0
        while added < extra_edges and attempts < extra_edges * 50 + 100:
            attempts += 1
            a, b = rng.sample(range(n_switches), 2)
            key = frozenset((a, b))
            if key in present:
                continue
            try:
                topo.connect(switch_id(a), switch_id(b), length_km=length_km)
            except TopologyError:
                continue  # a node ran out of ports
            present.add(key)
            added += 1
        topo.extra_edges_requested = extra_edges
        topo.extra_edges_added = added
        if added < extra_edges:
            warnings.warn(
                f"random_connected({n_switches}): only {added} of "
                f"{extra_edges} requested redundant cables were added "
                "(port supply or attempt budget exhausted); the fabric is "
                "thinner than requested",
                RuntimeWarning,
                stacklevel=2,
            )
        return topo

    @classmethod
    def src_lan(
        cls,
        n_switches: int = 12,
        n_hosts: int = 24,
        rng: Optional[random.Random] = None,
    ) -> "Topology":
        """An installation in the style of the paper's Figure 1.

        A redundant switch core (random connected graph with
        ``n_switches`` extra edges) and dual-homed hosts: "Each host has
        links to two different switches.  Only one link is in active use
        at any time."

        With no explicit ``rng``, a deterministic per-generator substream
        from :func:`repro.sim.random.derived_stream` is used (see
        :meth:`random_connected` for the deprecation rationale).
        """
        rng = rng if rng is not None else derived_stream("topology.src_lan")
        topo = cls.random_connected(
            n_switches, extra_edges=n_switches, rng=rng
        )
        for h in range(n_hosts):
            host = topo.add_host(h)
            primary, alternate = rng.sample(range(n_switches), 2)
            topo.connect(host, switch_id(primary), port_a=0)
            topo.connect(host, switch_id(alternate), port_a=1)
        return topo


@dataclass(frozen=True)
class TopologyView:
    """An immutable snapshot of the connection pattern.

    This is what the reconfiguration algorithm's distribution phase hands
    to every switch: "At the end of this phase, each switch knows the full
    topology."  Equality is structural, so tests can assert that every
    switch converged to the same view and that it matches ground truth.
    """

    edges: FrozenSet[Edge] = field(default_factory=frozenset)

    def switches(self) -> List[NodeId]:
        nodes: Set[NodeId] = set()
        for (na, _), (nb, _) in self.edges:
            nodes.add(na)
            nodes.add(nb)
        return sorted(n for n in nodes if n.is_switch)

    def host_ports(self) -> Dict[NodeId, List[Tuple[int, NodeId, int]]]:
        """host -> sorted [(host port, switch, switch port)]."""
        attachments: Dict[NodeId, List[Tuple[int, NodeId, int]]] = {}
        for (na, pa), (nb, pb) in self.edges:
            if na.is_host and nb.is_switch:
                attachments.setdefault(na, []).append((pa, nb, pb))
            elif nb.is_host and na.is_switch:
                attachments.setdefault(nb, []).append((pb, na, pa))
        for entries in attachments.values():
            entries.sort()
        return attachments


def view_from_edges(edges: Iterable[Edge]) -> TopologyView:
    """Build a view from raw edges, normalizing endpoint order."""
    return TopologyView(frozenset(_normalize(a, b) for a, b in edges))
