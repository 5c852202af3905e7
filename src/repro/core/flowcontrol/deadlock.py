"""Wait-for graphs and deadlock analysis.

Section 5: "Using flow-control to prevent buffer overflow introduces the
possibility of deadlock.  A cell effectively holds a buffer at the
upstream switch while attempting to acquire one at the downstream switch.
With AN1's FIFO buffers, if the first packet in the queue is blocked, the
entire link is blocked as well.  If a cycle of blocked links could arise,
where each link has a packet waiting for a buffer in the next link, then
deadlock could occur."

We model the resource graph at the granularity the buffer organisation
dictates:

- **FIFO buffers (AN1)**: the resource is the whole directed link; a
  route that enters on directed link A and leaves on directed link B adds
  the waits-for edge A -> B.  A cycle means a deadlock is reachable.
  Up*/down* routing exists precisely to keep this graph acyclic.
- **Per-VC buffers (AN2)**: the resource is the (virtual circuit, link)
  buffer pool; waits-for edges only connect consecutive links *of the
  same circuit*, so every chain is a simple path and "since the links of
  a single virtual circuit can not form a cycle, deadlock cannot occur".
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro._types import NodeId

#: A directed link: (from node, to node).
DirectedLink = Tuple[NodeId, NodeId]


class WaitForGraph:
    """A directed graph over arbitrary hashable resources."""

    def __init__(self) -> None:
        self._edges: Dict[Hashable, Set[Hashable]] = {}

    def add_edge(self, holder: Hashable, wanted: Hashable) -> None:
        self._edges.setdefault(holder, set()).add(wanted)
        self._edges.setdefault(wanted, set())

    def add_node(self, node: Hashable) -> None:
        self._edges.setdefault(node, set())

    def has_cycle(self) -> bool:
        return self.find_cycle() is not None

    def find_cycle(self) -> "List[Hashable] | None":
        """A cycle as a node list (first == last), or ``None``.

        Iterative three-colour DFS so deep graphs cannot blow the Python
        recursion limit.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        # det: allow(colour is lookup-only; dict key order never observed)
        colour: Dict[Hashable, int] = {node: WHITE for node in self._edges}
        parent: Dict[Hashable, Hashable] = {}
        # Which cycle is reported follows the caller's add_edge insertion
        # order, not hash order; DFS children are sorted below.
        # det: allow(dict insertion order is replay-deterministic)
        for start in self._edges:
            if colour[start] != WHITE:
                continue
            stack: List[Tuple[Hashable, Iterable]] = [
                (start, iter(sorted(self._edges[start], key=repr)))
            ]
            colour[start] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append(
                            (child, iter(sorted(self._edges[child], key=repr)))
                        )
                        advanced = True
                        break
                    if colour[child] == GREY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [child, node]
                        walker = node
                        while walker != child:
                            walker = parent[walker]
                            cycle.append(walker)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None


def fifo_wait_for_graph(
    routes: Sequence[Sequence[NodeId]],
) -> WaitForGraph:
    """AN1-style: whole directed links are the contended resources.

    ``routes`` are node paths (host/switch ids); consecutive directed
    links of each route add waits-for edges.
    """
    graph = WaitForGraph()
    for route in routes:
        links = [
            (route[i], route[i + 1]) for i in range(len(route) - 1)
        ]
        for held, wanted in zip(links, links[1:]):
            graph.add_edge(held, wanted)
        for link in links:
            graph.add_node(link)
    return graph


def per_vc_wait_for_graph(
    routes: Sequence[Sequence[NodeId]],
) -> WaitForGraph:
    """AN2-style: each circuit's buffers are private, so resources are
    (circuit index, directed link) pairs.  The resulting graph is a union
    of simple chains and can never contain a cycle."""
    graph = WaitForGraph()
    for circuit_index, route in enumerate(routes):
        links = [
            (circuit_index, (route[i], route[i + 1]))
            for i in range(len(route) - 1)
        ]
        for held, wanted in zip(links, links[1:]):
            graph.add_edge(held, wanted)
        for link in links:
            graph.add_node(link)
    return graph
