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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro._types import NodeId
from repro.net.topology import Edge, TopologyView

_PathResult = Optional[Tuple[List[NodeId], List[Edge]]]

#: cache sentinel distinguishing "no entry" from a cached ``None``
#: (destination unreachable is a perfectly cacheable answer).
_MISS = object()

_UNBLOCKED: FrozenSet[Edge] = frozenset()


class UpDownOrientation:
    """Link orientations and legal-path search over one topology view.

    Every query -- :meth:`shortest_legal_path`,
    :meth:`shortest_unrestricted_path` and :meth:`next_hop` -- is one
    breadth-first search over (switch, has-gone-down) states
    (:meth:`_search`), memoized per ``(kind, source, destination)``.
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
        self, source: NodeId, destination: NodeId
    ) -> _PathResult:
        """Shortest up*/down* path between two switches."""
        return self._cached("legal", source, destination, self._legal)

    def shortest_unrestricted_path(
        self, source: NodeId, destination: NodeId
    ) -> _PathResult:
        """Plain BFS shortest path, for measuring the up*/down* penalty."""
        return self._cached("free", source, destination, self._free)

    def next_hop(
        self,
        here: NodeId,
        destination: NodeId,
        arrived_downward: bool,
        blocked_edges: FrozenSet[Edge] = _UNBLOCKED,
    ) -> Optional[Tuple[NodeId, Edge]]:
        """Hop-by-hop forwarding decision: the first hop of the shortest
        legal continuation from ``here`` avoiding ``blocked_edges``.

        ``arrived_downward`` is whether the path so far has taken a down
        traversal (then only down traversals remain legal); the chosen
        hop keeps the whole path legal.  Returns the neighbor and cable
        to use, or ``None`` when no legal continuation exists.
        ``blocked_edges`` lets the local-reroute extension search around
        a failed cable without waiting for a fresh view; such queries
        bypass the memo (both on read and on write) because the blocked
        set varies per call.
        """
        kind = "down" if arrived_downward else "legal"
        if blocked_edges:
            path = self._search(kind, blocked_edges, here, destination)
        else:
            path = self._cached(
                kind, here, destination,
                self._down if arrived_downward else self._legal,
            )
        if path is None or not path[1]:
            return None
        nodes, edges = path
        return nodes[1], edges[0]

    # The unblocked searches, one per memo kind, in ``_cached``'s
    # ``compute(source, destination)`` shape.
    def _legal(self, source: NodeId, destination: NodeId) -> _PathResult:
        return self._search("legal", _UNBLOCKED, source, destination)

    def _down(self, source: NodeId, destination: NodeId) -> _PathResult:
        return self._search("down", _UNBLOCKED, source, destination)

    def _free(self, source: NodeId, destination: NodeId) -> _PathResult:
        return self._search("free", _UNBLOCKED, source, destination)

    def _search(
        self,
        kind: str,
        blocked: FrozenSet[Edge],
        source: NodeId,
        destination: NodeId,
    ) -> _PathResult:
        """The one BFS over (switch, has-gone-down) states.

        ``"legal"`` starts at ``(source, False)``; ``"down"`` at
        ``(source, True)``, where only down traversals remain legal;
        ``"free"`` ignores direction (every state stays ``False``).
        """
        if source == destination:
            return ([source], [])
        free = kind == "free"
        start = (source, kind == "down")
        parents: Dict[Tuple[NodeId, bool], Tuple[Tuple[NodeId, bool], Edge]] = {}
        queue = deque([start])
        goal: Optional[Tuple[NodeId, bool]] = None
        while queue and goal is None:
            node, went_down = state = queue.popleft()
            for neighbor, edge in self._adjacency.get(node, []):
                if edge in blocked:
                    continue
                if free:
                    step = (neighbor, False)
                elif self.is_up_traversal(edge, node):
                    if went_down:
                        continue  # down then up: illegal
                    step = (neighbor, False)
                else:
                    step = (neighbor, True)
                if step == start or step in parents:
                    continue
                parents[step] = (state, edge)
                if neighbor == destination:
                    goal = step
                    break
                queue.append(step)
        if goal is None:
            return None
        nodes: List[NodeId] = [goal[0]]
        edges: List[Edge] = []
        step = goal
        while step != start:
            step, edge = parents[step]
            nodes.append(step[0])
            edges.append(edge)
        nodes.reverse()
        edges.reverse()
        return nodes, edges
