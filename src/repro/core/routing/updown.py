"""Up*/down* routing: deadlock freedom by route restriction.

Section 5: "The rules for route restriction are based on the spanning
tree formed during reconfiguration.  Each link in the network is assigned
an orientation, with up being toward the root of the tree.  (If the two
ends of the link are at the same level in the tree, then up is toward the
higher-numbered switch.)  Messages are only routed on up*/down* paths,
i.e. paths in which no traversal down a link is followed by an upward
traversal.  This restriction is sufficient to prevent cycle formation and
thus to prevent deadlock."

Levels are breadth-first distances from the root over the switch graph
(the propagation-order tree is observed to be near-breadth-first; using
BFS depths makes the orientation deterministic for a given view + root,
which every switch can compute identically from the distributed
topology).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro._types import NodeId
from repro.net.topology import Edge, TopologyView

_PathResult = Optional[Tuple[List[NodeId], List[Edge]]]

#: cache sentinel distinguishing "no entry" from a cached ``None``
#: (destination unreachable is a perfectly cacheable answer).
_MISS = object()


class UpDownOrientation:
    """Link orientations and legal-path search over one topology view.

    Path queries (:meth:`shortest_legal_path`,
    :meth:`shortest_unrestricted_path`, and the down-only search behind
    :meth:`next_hop`) are memoized per ``(source, destination)`` pair.
    The memo needs no explicit invalidation because an orientation is an
    immutable function of ``(view, root)``: an epoch that agrees on a
    different view or initiator installs a *new* orientation, and the
    switches that agree on the same pair share one (see
    ``SwitchNode._on_topology_ready``), so the cache key is the object
    lifetime itself.  ``epoch`` is an optional label naming the epoch
    that built the orientation, carried for observability.
    """

    def __init__(
        self,
        view: TopologyView,
        root: NodeId,
        epoch: Optional[str] = None,
    ) -> None:
        if not root.is_switch:
            raise ValueError(f"root must be a switch, got {root}")
        self.view = view
        self.root = root
        self.epoch = epoch
        self._adjacency: Dict[NodeId, List[Tuple[NodeId, Edge]]] = {}
        for edge in sorted(view.edges):
            (node_a, _), (node_b, _) = edge
            if node_a.is_switch and node_b.is_switch:
                self._adjacency.setdefault(node_a, []).append((node_b, edge))
                self._adjacency.setdefault(node_b, []).append((node_a, edge))
        switches = view.switches()
        if root not in self._adjacency and switches != [root]:
            if root not in set(switches):
                raise ValueError(f"root {root} not in the topology view")
        self.levels = self._bfs_levels()
        # Every switch in the view must be reachable from the root over
        # the *switch* graph.  Accepting a disconnected view here used to
        # defer the failure to a confusing ``up_end`` ValueError in the
        # middle of some later path query; fail at construction instead,
        # where the caller (the epoch install path) can fall back.
        unreachable = [s for s in switches if s not in self.levels]
        if unreachable:
            raise ValueError(
                f"switch graph is not connected from root {root}: "
                f"{len(unreachable)} of {len(switches)} switches are "
                f"unreachable (e.g. {unreachable[0]})"
            )
        # (kind, source, destination) -> (nodes, edges) or None.  Entries
        # are only written for unblocked queries; ``blocked_edges``
        # searches (local reroute around a failure the view does not know
        # about yet) always run the BFS.
        self._path_cache: Dict[Tuple[str, NodeId, NodeId], _PathResult] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def _cached(
        self, kind: str, source: NodeId, destination: NodeId, compute
    ) -> _PathResult:
        """Memoized path lookup.

        Hits return fresh list copies: callers routinely concatenate or
        (in reroute paths) consume the lists, and a shared mutable result
        would let one caller corrupt every later query.
        """
        key = (kind, source, destination)
        hit = self._path_cache.get(key, _MISS)
        if hit is not _MISS:
            self.cache_hits += 1
            if hit is None:
                return None
            nodes, edges = hit
            return list(nodes), list(edges)
        self.cache_misses += 1
        result = compute(source, destination)
        if result is None:
            self._path_cache[key] = None
            return None
        nodes, edges = result
        self._path_cache[key] = (list(nodes), list(edges))
        return result

    def _bfs_levels(self) -> Dict[NodeId, int]:
        levels = {self.root: 0}
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for neighbor, _ in self._adjacency.get(node, []):
                if neighbor not in levels:
                    levels[neighbor] = levels[node] + 1
                    queue.append(neighbor)
        return levels

    # ------------------------------------------------------------------
    def up_end(self, edge: Edge) -> NodeId:
        """The endpoint of ``edge`` that is the *up* direction.

        Closer to the root wins; at equal levels, the higher-numbered
        switch is up (the paper's tie-break).
        """
        (node_a, _), (node_b, _) = edge
        level_a = self.levels.get(node_a)
        level_b = self.levels.get(node_b)
        if level_a is None or level_b is None:
            raise ValueError(f"edge {edge} spans disconnected switches")
        if level_a != level_b:
            return node_a if level_a < level_b else node_b
        return node_a if node_a > node_b else node_b

    def is_up_traversal(self, edge: Edge, from_node: NodeId) -> bool:
        """True when crossing ``edge`` out of ``from_node`` goes upward."""
        return self.up_end(edge) != from_node

    # ------------------------------------------------------------------
    def path_is_legal(self, nodes: Sequence[NodeId], edges: Sequence[Edge]) -> bool:
        """No down-traversal followed by an up-traversal."""
        went_down = False
        for from_node, edge in zip(nodes, edges):
            if self.is_up_traversal(edge, from_node):
                if went_down:
                    return False
            else:
                went_down = True
        return True

    def shortest_legal_path(
        self,
        source: NodeId,
        destination: NodeId,
        blocked_edges: Optional[FrozenSet[Edge]] = None,
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        """Shortest up*/down* path between two switches.

        BFS over (switch, has-gone-down) states.  ``blocked_edges`` lets
        the local-reroute extension search around a failed cable without
        waiting for a fresh view; such queries bypass the memo (both on
        read and on write) because the blocked set varies per call.
        """
        if not blocked_edges:
            return self._cached("legal", source, destination, self._legal_bfs)
        return self._legal_bfs(source, destination, blocked_edges)

    def _legal_bfs(
        self,
        source: NodeId,
        destination: NodeId,
        blocked_edges: Optional[FrozenSet[Edge]] = None,
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        if source == destination:
            return ([source], [])
        blocked = blocked_edges or frozenset()
        start = (source, False)
        parents: Dict[Tuple[NodeId, bool], Tuple[Tuple[NodeId, bool], Edge]] = {}
        seen: Set[Tuple[NodeId, bool]] = {start}
        queue = deque([start])
        goal: Optional[Tuple[NodeId, bool]] = None
        while queue and goal is None:
            node, went_down = queue.popleft()
            for neighbor, edge in self._adjacency.get(node, []):
                if edge in blocked:
                    continue
                if self.is_up_traversal(edge, node):
                    if went_down:
                        continue  # down then up: illegal
                    state = (neighbor, False)
                else:
                    state = (neighbor, True)
                if state in seen:
                    continue
                seen.add(state)
                parents[state] = ((node, went_down), edge)
                if neighbor == destination:
                    goal = state
                    break
                queue.append(state)
        if goal is None:
            return None
        nodes: List[NodeId] = [goal[0]]
        edges: List[Edge] = []
        state = goal
        while state != start:
            state, edge = parents[state]
            nodes.append(state[0])
            edges.append(edge)
        nodes.reverse()
        edges.reverse()
        return nodes, edges

    def shortest_unrestricted_path(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        """Plain BFS shortest path, for measuring the up*/down* penalty."""
        return self._cached("free", source, destination, self._free_bfs)

    def _free_bfs(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        if source == destination:
            return ([source], [])
        parents: Dict[NodeId, Tuple[NodeId, Edge]] = {}
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor, edge in self._adjacency.get(node, []):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = (node, edge)
                if neighbor == destination:
                    queue.clear()
                    break
                queue.append(neighbor)
        if destination not in parents:
            return None
        nodes = [destination]
        edges: List[Edge] = []
        node = destination
        while node != source:
            node, edge = parents[node]
            nodes.append(node)
            edges.append(edge)
        nodes.reverse()
        edges.reverse()
        return nodes, edges

    def next_hop(
        self, here: NodeId, destination: NodeId, arrived_downward: bool
    ) -> Optional[Tuple[NodeId, Edge]]:
        """Hop-by-hop forwarding decision for circuit setup.

        ``arrived_downward`` is whether the path so far has taken a down
        traversal; the chosen hop must keep the whole path legal.  Returns
        the neighbor and cable to use, or ``None`` when no legal
        continuation exists.
        """
        path = None
        if not arrived_downward:
            path = self.shortest_legal_path(here, destination)
        else:
            # Only downward continuations are allowed now: BFS restricted
            # to down traversals.
            path = self._shortest_down_only_path(here, destination)
        if path is None or not path[1]:
            return None
        nodes, edges = path
        return nodes[1], edges[0]

    def _shortest_down_only_path(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        return self._cached("down", source, destination, self._down_bfs)

    def _down_bfs(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[List[NodeId], List[Edge]]]:
        if source == destination:
            return ([source], [])
        parents: Dict[NodeId, Tuple[NodeId, Edge]] = {}
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor, edge in self._adjacency.get(node, []):
                if self.is_up_traversal(edge, node):
                    continue
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = (node, edge)
                if neighbor == destination:
                    queue.clear()
                    break
                queue.append(neighbor)
        if destination not in parents:
            return None
        nodes = [destination]
        edges: List[Edge] = []
        node = destination
        while node != source:
            node, edge = parents[node]
            nodes.append(node)
            edges.append(edge)
        nodes.reverse()
        edges.reverse()
        return nodes, edges
