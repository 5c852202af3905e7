"""Tests for wait-for graphs: the FIFO deadlock cycle and per-VC safety."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import switch_id
from repro.core.flowcontrol.deadlock import (
    WaitForGraph,
    fifo_wait_for_graph,
    per_vc_wait_for_graph,
)


def ring_routes(n):
    """Circular traffic on an n-ring: route i goes i -> i+1 -> i+2."""
    return [
        [switch_id(i), switch_id((i + 1) % n), switch_id((i + 2) % n)]
        for i in range(n)
    ]


class TestWaitForGraph:
    def test_empty_graph_acyclic(self):
        assert not WaitForGraph().has_cycle()

    def test_self_loop_is_cycle(self):
        graph = WaitForGraph()
        graph.add_edge("a", "a")
        assert graph.has_cycle()

    def test_chain_acyclic(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert not graph.has_cycle()

    def test_cycle_found_and_reported(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}

    def test_deep_chain_no_recursion_blowup(self):
        graph = WaitForGraph()
        for i in range(5000):
            graph.add_edge(i, i + 1)
        assert not graph.has_cycle()

    def test_counts(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_node("c")
        assert graph._edges == {"a": {"b"}, "b": set(), "c": set()}


class TestFifoDeadlock:
    def test_ring_traffic_cycles(self):
        """Circular routes over FIFO links form a waits-for cycle: the
        deadlock AN1 prevents with up*/down* routing."""
        graph = fifo_wait_for_graph(ring_routes(4))
        assert graph.has_cycle()

    def test_tree_routes_acyclic(self):
        routes = [
            [switch_id(0), switch_id(1), switch_id(2)],
            [switch_id(2), switch_id(1), switch_id(0)],
        ]
        assert not fifo_wait_for_graph(routes).has_cycle()

    def test_single_hop_routes_never_cycle(self):
        routes = [[switch_id(0), switch_id(1)]] * 5
        assert not fifo_wait_for_graph(routes).has_cycle()


class TestPerVcSafety:
    def test_ring_traffic_safe_with_per_vc_buffers(self):
        """The same circular routes are acyclic with per-VC buffers:
        "Since the links of a single virtual circuit can not form a cycle,
        deadlock cannot occur."""
        assert not per_vc_wait_for_graph(ring_routes(4)).has_cycle()

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_switches=st.integers(min_value=3, max_value=8),
        n_routes=st.integers(min_value=1, max_value=12),
    )
    def test_arbitrary_simple_routes_always_acyclic(
        self, seed, n_switches, n_routes
    ):
        rng = random.Random(seed)
        routes = []
        for _ in range(n_routes):
            length = rng.randint(2, n_switches)
            nodes = rng.sample(range(n_switches), length)
            routes.append([switch_id(x) for x in nodes])
        assert not per_vc_wait_for_graph(routes).has_cycle()
