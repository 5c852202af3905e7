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

import hashlib
import heapq
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro._types import NodeId
from repro.net.topology import Edge, TopologyDelta, TopologyView

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
    immutable function of ``(view, root)``: reconfiguration installs a
    new epoch by building a *new* orientation (see
    ``AN2Switch._on_topology_ready``), so the epoch key is the object
    lifetime itself.  ``epoch`` is an optional label carried for
    observability -- the route-cache probes report hits/misses per epoch.
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
    # incremental recomputation
    # ------------------------------------------------------------------
    def structure_digest(self) -> str:
        """SHA-256 over (root, levels, exact adjacency list order).

        Two orientations with equal digests answer every un-blocked path
        query identically: the BFS result is a pure function of the
        adjacency structure (including list order) and the levels.  The
        incremental path (:meth:`apply_delta`) is digest-checked against
        a from-scratch rebuild in tests and in the topology smoke gate --
        equivalence is proven, not assumed.
        """
        digest = hashlib.sha256()
        digest.update(str(self.root).encode("utf-8"))
        for node in sorted(self.levels):
            digest.update(f"|{node}:{self.levels[node]}".encode("utf-8"))
        for node in sorted(self._adjacency):
            digest.update(f"#{node}".encode("utf-8"))
            for _, edge in self._adjacency[node]:
                (na, pa), (nb, pb) = edge
                digest.update(f";{na}.{pa}-{nb}.{pb}".encode("utf-8"))
        return digest.hexdigest()

    def apply_delta(
        self, delta: TopologyDelta, epoch: Optional[str] = None
    ) -> "UpDownOrientation":
        """A new orientation for ``view +/- delta``, computed incrementally.

        Instead of re-sorting every cable and re-running the full BFS
        (O(E log E) -- the whole-fabric cost a per-epoch rebuild pays at
        datacenter scale), this patches only the adjacency lists of
        switches touched by the delta and repairs the BFS levels over the
        affected region (deletion cascade + bounded re-settle, the
        classic dynamic-BFS algorithm).  Path-cache entries provably
        untouched by the delta migrate to the new orientation; everything
        else is invalidated.

        The result is structurally identical to
        ``UpDownOrientation(delta.apply_to(view), root)`` -- same levels,
        same adjacency order, same answers to every query
        (:meth:`structure_digest` equality, enforced by tests).  Raises
        ``ValueError`` exactly when the rebuild would: the delta must
        leave the switch graph connected from the root.
        """
        new_view = delta.apply_to(self.view)
        removed_sw = sorted(
            e for e in delta.removed
            if e[0][0].is_switch and e[1][0].is_switch
        )
        added_sw = sorted(
            e for e in delta.added
            if e[0][0].is_switch and e[1][0].is_switch
        )

        clone: UpDownOrientation = object.__new__(UpDownOrientation)
        clone.view = new_view
        clone.root = self.root
        clone.epoch = epoch
        clone._adjacency = self._patched_adjacency(removed_sw, added_sw)
        clone.levels, dirty = self._repaired_levels(
            clone._adjacency, removed_sw, added_sw
        )
        self._check_delta_connectivity(clone, delta)
        clone._path_cache = self._migrated_cache(
            removed_sw, added_sw, dirty, clone.levels
        )
        clone.cache_hits = 0
        clone.cache_misses = 0
        return clone

    def _patched_adjacency(
        self, removed_sw: List[Edge], added_sw: List[Edge]
    ) -> Dict[NodeId, List[Tuple[NodeId, Edge]]]:
        """Adjacency for the new view, bit-identical to a full rebuild.

        A rebuild appends each node's incident edges in global
        ``sorted(edges)`` order, i.e. each list is sorted by edge; so
        patching = rebuild only the touched nodes' lists and re-sort them
        by edge.  Untouched lists are shared (they are never mutated
        after construction).
        """
        adjacency = dict(self._adjacency)
        removed_set = set(removed_sw)
        touched: Set[NodeId] = set()
        for (na, _), (nb, _) in removed_sw:
            touched.add(na)
            touched.add(nb)
        for (na, _), (nb, _) in added_sw:
            touched.add(na)
            touched.add(nb)
        for node in sorted(touched):
            entries = [
                (neighbor, edge)
                for neighbor, edge in adjacency.get(node, [])
                if edge not in removed_set
            ]
            for edge in added_sw:
                (ea, _), (eb, _) = edge
                if ea == node:
                    entries.append((eb, edge))
                elif eb == node:
                    entries.append((ea, edge))
            if entries:
                entries.sort(key=lambda item: item[1])
                adjacency[node] = entries
            else:
                adjacency.pop(node, None)
        return adjacency

    def _repaired_levels(
        self,
        adjacency: Dict[NodeId, List[Tuple[NodeId, Edge]]],
        removed_sw: List[Edge],
        added_sw: List[Edge],
    ) -> Tuple[Dict[NodeId, int], Set[NodeId]]:
        """Dynamic-BFS repair of the root levels over the affected region.

        Phase 1 (deletion cascade): a switch whose every potential BFS
        parent (neighbor one level up) is itself affected joins the
        affected set.  Phase 2 (re-settle): affected switches plus any
        switch an added edge can improve are re-settled in level order
        from their clean neighbors (unit-weight Dijkstra).  Switches that
        never settle are unreachable.  Returns ``(levels, dirty)`` where
        ``dirty`` is every switch whose level changed, appeared, or
        vanished.
        """
        old_levels = self.levels
        root = self.root
        affected: Set[NodeId] = set()

        def has_clean_support(node: NodeId) -> bool:
            want = old_levels[node] - 1
            for neighbor, _ in adjacency.get(node, []):
                if neighbor in affected:
                    continue
                if old_levels.get(neighbor) == want:
                    return True
            return False

        cascade: deque = deque()
        for (na, _), (nb, _) in removed_sw:
            for node in (na, nb):
                if (
                    node != root
                    and node in old_levels
                    and node not in affected
                    and not has_clean_support(node)
                ):
                    affected.add(node)
                    cascade.append(node)
        while cascade:
            node = cascade.popleft()
            for neighbor, _ in adjacency.get(node, []):
                if (
                    neighbor != root
                    and neighbor not in affected
                    and neighbor in old_levels
                    and not has_clean_support(neighbor)
                ):
                    affected.add(neighbor)
                    cascade.append(neighbor)

        # Re-settle: seed every affected switch from its clean neighbors,
        # and every switch an added edge might improve or newly reach.
        best: Dict[NodeId, int] = {}
        heap: List[Tuple[int, NodeId]] = []

        def known_level(node: NodeId) -> Optional[int]:
            if node in affected:
                return None
            return old_levels.get(node)

        def push(node: NodeId, candidate: int) -> None:
            if candidate < best.get(node, 1 << 60):
                best[node] = candidate
                heapq.heappush(heap, (candidate, node))

        for node in sorted(affected):
            for neighbor, _ in adjacency.get(node, []):
                support = known_level(neighbor)
                if support is not None:
                    push(node, support + 1)
        for (na, _), (nb, _) in added_sw:
            for here, there in ((na, nb), (nb, na)):
                here_level = known_level(here)
                if here_level is None:
                    continue
                there_level = known_level(there)
                if there_level is None or here_level + 1 < there_level:
                    push(there, here_level + 1)

        settled: Dict[NodeId, int] = {}
        while heap:
            level, node = heapq.heappop(heap)
            if node in settled or level > best.get(node, 1 << 60):
                continue
            settled[node] = level
            for neighbor, _ in adjacency.get(node, []):
                if neighbor in settled or neighbor == root:
                    continue
                candidate = level + 1
                current = known_level(neighbor)
                if neighbor in affected or neighbor in best:
                    push(neighbor, candidate)
                elif current is None or candidate < current:
                    push(neighbor, candidate)

        levels = dict(old_levels)
        dirty: Set[NodeId] = set()
        for node, level in sorted(settled.items()):
            if old_levels.get(node) != level:
                dirty.add(node)
            levels[node] = level
        unreachable = affected - set(settled)
        for node in sorted(unreachable):
            levels.pop(node, None)
            dirty.add(node)
        return levels, dirty

    def _check_delta_connectivity(
        self, clone: "UpDownOrientation", delta: TopologyDelta
    ) -> None:
        """Raise exactly when a from-scratch rebuild of the new view would.

        A switch still present in the new view but absent from the
        repaired levels is unreachable from the root; a switch that left
        the view entirely (its last cable was removed) is legitimately
        gone.  The O(E) membership scan only runs on the rare raise-or-
        drop path -- never on a clean delta.
        """
        if not clone.view.edges:
            # The rebuild rejects an edgeless view outright (the root is
            # not in it).
            raise ValueError(f"root {clone.root} not in the topology view")
        # Unreachable candidates: switches with switch links but no
        # repaired level, switches stripped of their last switch link by
        # a removal (they may survive in the view on a host cable, which
        # the rebuild rejects too), and switches introduced by added
        # edges that never got a level.
        candidates = {
            node
            # det: allow(builds a set; membership only, order-insensitive)
            for node in set(clone._adjacency) - set(clone.levels)
            if node.is_switch
        }
        candidates |= {
            node
            for edge in delta.removed | delta.added
            for node, _ in edge
            if node.is_switch
            and node != clone.root
            and node not in clone.levels
        }
        if not candidates:
            return
        in_view: Set[NodeId] = set()
        for (na, _), (nb, _) in clone.view.edges:
            in_view.add(na)
            in_view.add(nb)
        disconnected = sorted(c for c in candidates if c in in_view)
        if disconnected:
            raise ValueError(
                f"switch graph is not connected from root {clone.root}: "
                f"{len(disconnected)} switch(es) unreachable after delta "
                f"(e.g. {disconnected[0]})"
            )

    def _migrated_cache(
        self,
        removed_sw: List[Edge],
        added_sw: List[Edge],
        dirty: Set[NodeId],
        new_levels: Dict[NodeId, int],
    ) -> Dict[Tuple[str, NodeId, NodeId], _PathResult]:
        """Path-cache entries that provably survive the delta.

        An entry's BFS read the adjacency of switches within path-length
        distance of its source and the levels of their neighbors.  Root
        levels lower-bound pairwise distance (``dist(s, x) >=
        |level[s] - level[x]|``), so an entry whose every
        delta-affected switch is *strictly farther* than its path length
        -- under both the old and the new levels -- would have produced
        a byte-identical BFS on the new structure.  Everything else is
        invalidated (including every negative/unreachable entry: those
        BFS runs explored their whole component).
        """
        if not self._path_cache:
            return {}
        affected: Set[NodeId] = set(dirty)
        for (na, _), (nb, _) in removed_sw:
            affected.add(na)
            affected.add(nb)
        for (na, _), (nb, _) in added_sw:
            affected.add(na)
            affected.add(nb)
        if not affected:
            return dict(self._path_cache)
        old_levels = self.levels
        affected_sorted = sorted(affected)
        migrated: Dict[Tuple[str, NodeId, NodeId], _PathResult] = {}
        # The cache is digest-neutral: entries are only ever read by exact
        # key, so migration order cannot leak into any output.
        for key, result in self._path_cache.items():  # det: allow(cache is key-addressed; iteration order unobservable)
            if result is None:
                continue
            nodes, edges = result
            source = key[1]
            length = len(edges)
            safe = True
            for x in affected_sorted:
                old_x = old_levels.get(x)
                old_s = old_levels.get(source)
                if old_x is not None and old_s is not None:
                    if abs(old_s - old_x) <= length:
                        safe = False
                        break
                new_x = new_levels.get(x)
                new_s = new_levels.get(source)
                if new_x is not None and new_s is not None:
                    if abs(new_s - new_x) <= length:
                        safe = False
                        break
            if safe:
                migrated[key] = (list(nodes), list(edges))
        return migrated

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
