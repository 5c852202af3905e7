"""Tests for topology descriptions, generators, and views."""

import random

import pytest

from repro._types import host_id, parse_node_id, switch_id
from repro.constants import FAST_LINK_BPS, SLOW_LINK_BPS
from repro.net.topology import Topology, TopologyError, view_from_edges


class TestConstruction:
    def test_connect_auto_assigns_ports(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        edge = topo.connect("s0", "s1")
        assert edge == ((switch_id(0), 0), (switch_id(1), 0))

    def test_duplicate_switch_rejected(self):
        topo = Topology()
        topo.add_switch(0)
        with pytest.raises(TopologyError):
            topo.add_switch(0)

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch(0)
        with pytest.raises(TopologyError):
            topo.connect("s0", "s0")

    def test_port_exhaustion(self):
        topo = Topology()
        topo.add_switch(0, ports=1)
        topo.add_switch(1)
        topo.add_switch(2)
        topo.connect("s0", "s1")
        with pytest.raises(TopologyError):
            topo.connect("s0", "s2")

    def test_explicit_port_conflict(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.add_switch(2)
        topo.connect("s0", "s1", port_a=3)
        with pytest.raises(TopologyError):
            topo.connect("s0", "s2", port_a=3)

    def test_unknown_node_rejected(self):
        topo = Topology()
        topo.add_switch(0)
        with pytest.raises(TopologyError):
            topo.connect("s0", "s9")

    def test_host_links_default_slow_trunks_fast(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.add_host(0)
        topo.connect("s0", "s1")
        topo.connect("h0", "s0")
        speeds = {
            tuple(sorted(str(n) for (n, _) in spec.endpoints)): spec.bps
            for spec in topo.cables()
        }
        assert speeds[("s0", "s1")] == FAST_LINK_BPS
        assert speeds[("h0", "s0")] == SLOW_LINK_BPS

    def test_parallel_cables_allowed(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.connect("s0", "s1")
        topo.connect("s0", "s1")
        assert len(topo.switch_edges()) == 2


class TestQueries:
    def test_neighbors(self):
        topo = Topology.line(3)
        assert topo.neighbors("s1") == [switch_id(0), switch_id(2)]

    def test_is_switch_connected(self):
        topo = Topology.line(4)
        assert topo.is_switch_connected()
        disconnected = Topology()
        disconnected.add_switch(0)
        disconnected.add_switch(1)
        assert not disconnected.is_switch_connected()


class TestGenerators:
    def test_line(self):
        topo = Topology.line(5)
        assert len(topo.switches()) == 5
        assert len(topo.switch_edges()) == 4

    def test_ring(self):
        topo = Topology.ring(5)
        assert len(topo.switch_edges()) == 5

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_ring_too_small_rejected(self, n):
        # ring(2) used to silently double-cable the same switch pair
        # (a two-edge "ring"); anything below 3 is now an error.
        with pytest.raises(TopologyError, match="at least 3"):
            Topology.ring(n)

    def test_ring_of_three_is_smallest(self):
        topo = Topology.ring(3)
        assert len(topo.switch_edges()) == 3

    def test_star(self):
        topo = Topology.star(6)
        assert len(topo.switches()) == 7
        assert len(topo.neighbors("s0")) == 6

    def test_grid(self):
        topo = Topology.grid(3, 4)
        assert len(topo.switches()) == 12
        assert len(topo.switch_edges()) == 3 * 3 + 2 * 4  # 17

    def test_random_connected_is_connected(self):
        for seed in range(5):
            topo = Topology.random_connected(
                12, extra_edges=6, rng=random.Random(seed)
            )
            assert topo.is_switch_connected()
            assert len(topo.switch_edges()) >= 11

    def test_random_connected_records_full_redundancy(self):
        topo = Topology.random_connected(
            12, extra_edges=4, rng=random.Random(3)
        )
        assert topo.extra_edges_requested == 4
        assert topo.extra_edges_added == 4

    def test_random_connected_shortfall_recorded_and_warned(self):
        # Two switches can hold at most one cable between them: the
        # spanning tree uses it, so every redundant cable request must
        # fall short -- and the caller must be able to see that instead
        # of silently benchmarking a thinner fabric than requested.
        with pytest.warns(RuntimeWarning, match="redundant cables"):
            topo = Topology.random_connected(
                2, extra_edges=5, rng=random.Random(0)
            )
        assert topo.extra_edges_requested == 5
        assert topo.extra_edges_added == 0
        assert len(topo.switch_edges()) == 1

    def test_src_lan_hosts_dual_homed(self):
        topo = Topology.src_lan(n_switches=6, n_hosts=8, rng=random.Random(1))
        assert len(topo.hosts()) == 8
        view = topo.view()
        for host, attachments in view.host_ports().items():
            assert len(attachments) == 2
            switches = {s for _, s, _ in attachments}
            assert len(switches) == 2  # two *different* switches


class TestTopologyView:
    def test_view_matches_description(self):
        topo = Topology.line(3)
        view = topo.view()
        assert len(view) == 2
        assert view.switches() == [switch_id(0), switch_id(1), switch_id(2)]

    def test_equality_is_structural(self):
        a = Topology.line(3).view()
        b = Topology.line(3).view()
        assert a == b

    def test_view_from_edges_normalizes(self):
        a = (switch_id(1), 0)
        b = (switch_id(0), 0)
        view = view_from_edges([(a, b)])
        ((first, _), _) = next(iter(view.edges))
        assert first == switch_id(0)


def test_parse_node_id_roundtrip():
    assert parse_node_id("s3") == switch_id(3)
    assert parse_node_id("h12") == host_id(12)
    assert parse_node_id(switch_id(1)) == switch_id(1)
    with pytest.raises(ValueError):
        parse_node_id("x9")
    with pytest.raises(ValueError):
        parse_node_id("s")
