"""Tests for up*/down* orientation and legal-path search."""

import random

import pytest

from repro._types import switch_id
from repro.core.flowcontrol.deadlock import fifo_wait_for_graph
from repro.core.routing.updown import UpDownOrientation
from repro.net.topology import Topology


def orient(topo, root=0):
    return UpDownOrientation(topo.view(), switch_id(root))


class TestOrientation:
    def test_levels_are_bfs_depths(self):
        topo = Topology.line(4)
        orientation = orient(topo)
        assert [orientation.levels[switch_id(i)] for i in range(4)] == [
            0, 1, 2, 3,
        ]

    def test_up_is_toward_root(self):
        topo = Topology.line(3)
        orientation = orient(topo)
        edge = sorted(topo.view().edges)[0]  # s0 - s1
        assert orientation.up_end(edge) == switch_id(0)
        assert orientation.is_up_traversal(edge, switch_id(1))
        assert not orientation.is_up_traversal(edge, switch_id(0))

    def test_same_level_tie_breaks_to_higher_id(self):
        """Paper: "up is toward the higher-numbered switch"."""
        topo = Topology()
        for i in range(3):
            topo.add_switch(i)
        topo.connect("s0", "s1")
        topo.connect("s0", "s2")
        topo.connect("s1", "s2")  # s1, s2 both at level 1
        orientation = orient(topo)
        cross = next(
            e
            for e in topo.view().edges
            if {e[0][0], e[1][0]} == {switch_id(1), switch_id(2)}
        )
        assert orientation.up_end(cross) == switch_id(2)

    def test_non_switch_root_rejected(self):
        from repro._types import host_id

        topo = Topology.line(2)
        with pytest.raises(ValueError):
            UpDownOrientation(topo.view(), host_id(0))

    def test_disconnected_view_rejected_at_construction(self):
        # Two separate line components in one view: switches unreachable
        # from the root used to surface only later as a cryptic up_end
        # ValueError on the first query that touched them.  Construction
        # now names the problem immediately.
        from repro.net.topology import view_from_edges

        a = Topology.line(2).view()
        b = Topology.line(2).view()
        shifted = frozenset(
            (
                (switch_id(int(str(na)[1:]) + 10), pa),
                (switch_id(int(str(nb)[1:]) + 10), pb),
            )
            for (na, pa), (nb, pb) in b.edges
        )
        view = view_from_edges(a.edges | shifted)
        with pytest.raises(ValueError, match="not connected from root"):
            UpDownOrientation(view, switch_id(0))


class TestLegality:
    def test_up_then_down_is_legal(self):
        topo = Topology.star(3)  # s0 hub; leaves s1..s3
        orientation = orient(topo)
        path = orientation.shortest_legal_path(switch_id(1), switch_id(2))
        assert path is not None
        nodes, edges = path
        assert nodes == [switch_id(1), switch_id(0), switch_id(2)]
        assert orientation.path_is_legal(nodes, edges)

    def test_down_then_up_is_illegal(self):
        topo = Topology.star(3)
        orientation = orient(topo)
        # Walk s1 <- s0 -> s2 backwards: from s0 down to s1 is fine; a
        # fabricated path s1 -> s0 -> s1 is nonsense; construct explicitly:
        view = topo.view()
        e01 = next(
            e for e in view.edges if {e[0][0], e[1][0]} == {switch_id(0), switch_id(1)}
        )
        e02 = next(
            e for e in view.edges if {e[0][0], e[1][0]} == {switch_id(0), switch_id(2)}
        )
        # s0 -> s1 (down), then s1 -> s0 (up) is a down-then-up violation.
        nodes = [switch_id(0), switch_id(1), switch_id(0)]
        assert not orientation.path_is_legal(nodes, [e01, e01])
        # s1 -> s0 (up) then s0 -> s2 (down): fine.
        assert orientation.path_is_legal(
            [switch_id(1), switch_id(0), switch_id(2)], [e01, e02]
        )

    def test_legal_path_exists_between_all_pairs(self):
        """Up*/down* always connects a connected network: via the root if
        nothing shorter."""
        for seed in range(5):
            topo = Topology.random_connected(
                10, extra_edges=6, rng=random.Random(seed)
            )
            orientation = orient(topo, root=0)
            switches = topo.switches()
            for a in switches:
                for b in switches:
                    if a == b:
                        continue
                    assert orientation.shortest_legal_path(a, b) is not None

    def test_legal_paths_returned_are_legal_and_shortest_legal(self):
        for seed in range(3):
            topo = Topology.random_connected(
                8, extra_edges=5, rng=random.Random(seed)
            )
            orientation = orient(topo)
            switches = topo.switches()
            for a in switches:
                for b in switches:
                    if a == b:
                        continue
                    path = orientation.shortest_legal_path(a, b)
                    nodes, edges = path
                    assert nodes[0] == a and nodes[-1] == b
                    assert orientation.path_is_legal(nodes, edges)
                    unrestricted = orientation.shortest_unrestricted_path(a, b)
                    assert len(edges) >= len(unrestricted[1])

    def test_blocked_edges_respected(self):
        topo = Topology.line(3)
        orientation = orient(topo)
        edge = sorted(topo.view().edges)[0]
        assert orientation.next_hop(
            switch_id(0), switch_id(1), False, frozenset({edge})
        ) is None

    def test_trivial_path(self):
        topo = Topology.line(2)
        orientation = orient(topo)
        nodes, edges = orientation.shortest_legal_path(switch_id(0), switch_id(0))
        assert nodes == [switch_id(0)] and edges == []


class TestDeadlockFreedom:
    def test_legal_routes_never_cycle_fifo_graph(self):
        """The theorem up*/down* exists for: the FIFO wait-for graph of
        any set of legal routes is acyclic."""
        for seed in range(6):
            rng = random.Random(seed)
            topo = Topology.random_connected(9, extra_edges=8, rng=rng)
            orientation = orient(topo, root=rng.randrange(9))
            routes = []
            switches = topo.switches()
            for _ in range(25):
                a, b = rng.sample(switches, 2)
                nodes, _ = orientation.shortest_legal_path(a, b)
                routes.append(nodes)
            assert not fifo_wait_for_graph(routes).has_cycle()

    def test_unrestricted_routes_can_cycle(self):
        """Contrast: unrestricted shortest paths on a ring produce the
        classic circular wait."""
        topo = Topology.ring(6)
        orientation = orient(topo)
        routes = []
        for i in range(6):
            a, b = switch_id(i), switch_id((i + 2) % 6)
            # Force the cyclic direction: i -> i+1 -> i+2.
            routes.append([switch_id(i), switch_id((i + 1) % 6), b])
        assert fifo_wait_for_graph(routes).has_cycle()


class TestNextHop:
    def test_next_hop_walks_to_destination_legally(self):
        for seed in range(3):
            rng = random.Random(seed)
            topo = Topology.random_connected(8, extra_edges=4, rng=rng)
            orientation = orient(topo)
            switches = topo.switches()
            for a in switches:
                for b in switches:
                    if a == b:
                        continue
                    here, gone_down, hops = a, False, 0
                    while here != b:
                        hop = orientation.next_hop(here, b, gone_down)
                        assert hop is not None, f"stuck at {here} for {b}"
                        neighbor, edge = hop
                        if not orientation.is_up_traversal(edge, here):
                            gone_down = True
                        here = neighbor
                        hops += 1
                        assert hops <= 16, "next_hop loop"

    def test_next_hop_respects_gone_down(self):
        # In a star, after going down to a leaf there is no legal
        # continuation to a sibling leaf.
        topo = Topology.star(3)
        orientation = orient(topo)
        hop = orientation.next_hop(
            switch_id(1), switch_id(2), arrived_downward=True
        )
        assert hop is None


def legal_continuation_exists(orientation, here, destination, gone_down, blocked):
    """Brute force: depth-first over every (switch, gone-down) state
    reachable from ``(here, gone_down)`` without crossing ``blocked``."""
    stack, seen = [(here, gone_down)], {(here, gone_down)}
    while stack:
        node, went_down = stack.pop()
        for edge in orientation.view.edges:
            (a, _), (b, _) = edge
            if edge == blocked or node not in (a, b):
                continue
            there = b if node == a else a
            if not there.is_switch:
                continue
            up = orientation.is_up_traversal(edge, node)
            if up and went_down:
                continue
            if there == destination:
                return True
            state = (there, went_down or not up)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


@pytest.mark.parametrize("seed", range(6))
def test_blocked_next_hop_matches_brute_force(seed):
    """For every (here, destination, gone-down, one blocked cable):
    ``next_hop`` never takes the blocked cable, answers exactly when a
    legal continuation around it exists, and following it reaches the
    destination on a legal path."""
    topo = Topology.random_connected(7, extra_edges=4, rng=random.Random(seed))
    orientation = orient(topo, root=seed % 7)
    switches = topo.switches()
    for blocked in sorted(orientation.view.edges):
        for here in switches:
            for destination in switches:
                if here == destination:
                    continue
                for gone_down in (False, True):
                    hop = orientation.next_hop(
                        here, destination, gone_down, frozenset({blocked})
                    )
                    exists = legal_continuation_exists(
                        orientation, here, destination, gone_down, blocked
                    )
                    assert (hop is not None) == exists
                    node, went_down, hops = here, gone_down, 0
                    while hop is not None:
                        neighbor, edge = hop
                        assert edge != blocked
                        up = orientation.is_up_traversal(edge, node)
                        assert not (up and went_down), "down then up"
                        went_down = went_down or not up
                        node, hops = neighbor, hops + 1
                        assert hops <= 2 * len(switches), "next_hop loop"
                        if node == destination:
                            break
                        hop = orientation.next_hop(
                            node, destination, went_down, frozenset({blocked})
                        )
                        assert hop is not None, f"stuck at {node}"
                    assert not exists or node == destination
