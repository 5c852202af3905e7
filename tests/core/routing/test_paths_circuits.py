"""Tests for route computation and circuit bookkeeping."""

import pytest

from repro._types import host_id, switch_id
from repro.core.routing.circuits import (
    FIRST_DATA_VC,
    CircuitState,
    VcAllocator,
    VirtualCircuit,
)
from repro.core.routing.paths import (
    Route,
    RouteComputer,
    RoutingError,
    port_on,
    switch_hops_of,
)
from repro.net.cell import TrafficClass
from repro.net.topology import Topology


def hosted_line(n=3):
    topo = Topology.line(n)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", f"s{n-1}", port_a=0)
    return topo


class TestRouteComputer:
    def test_host_route_ends_at_hosts(self):
        computer = RouteComputer(hosted_line().view(), switch_id(0))
        route = computer.host_route(host_id(0), host_id(1))
        assert route.nodes[0] == host_id(0)
        assert route.nodes[-1] == host_id(1)
        assert route.n_switches == 3
        assert len(route.edges) == len(route.nodes) - 1

    def test_switch_hops_ports_consistent(self):
        computer = RouteComputer(hosted_line().view(), switch_id(0))
        route = computer.host_route(host_id(0), host_id(1))
        for (switch, in_port, out_port), node in zip(
            route.switch_hops, route.nodes[1:-1]
        ):
            assert switch == node
            assert in_port != out_port

    def test_attachment_prefers_active_port(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.connect("s0", "s1")
        topo.add_host(0)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h0", "s1", port_a=1)
        computer = RouteComputer(topo.view(), switch_id(0))
        switch, _ = computer.attachment(host_id(0), preferred_port=0)
        assert switch == switch_id(0)
        switch, _ = computer.attachment(host_id(0), preferred_port=1)
        assert switch == switch_id(1)

    def test_unknown_host_rejected(self):
        computer = RouteComputer(hosted_line().view(), switch_id(0))
        with pytest.raises(RoutingError):
            computer.attachment(host_id(99))
        with pytest.raises(RoutingError):
            computer.host_route(host_id(0), host_id(99))

    def test_same_host_rejected(self):
        computer = RouteComputer(hosted_line().view(), switch_id(0))
        with pytest.raises(RoutingError):
            computer.host_route(host_id(0), host_id(0))

    def test_hosts_only(self):
        computer = RouteComputer(hosted_line().view(), switch_id(0))
        with pytest.raises(RoutingError):
            computer.host_route(switch_id(0), host_id(1))

    def test_path_inflation_on_updown_hostile_topology(self):
        """A cross edge between same-level leaves is unusable downhill
        both ways, inflating some route beyond the unrestricted length."""
        topo = Topology()
        for i in range(5):
            topo.add_switch(i)
        topo.connect("s0", "s1")
        topo.connect("s0", "s2")
        topo.connect("s1", "s3")
        topo.connect("s2", "s4")
        topo.connect("s3", "s4")  # cross edge between level-2 switches
        computer = RouteComputer(topo.view(), switch_id(0))
        restricted, free = computer.path_inflation(switch_id(3), switch_id(4))
        assert free == 1
        assert restricted >= 1  # may use the cross edge (one direction!)
        # One of the two directions across the cross edge must be up;
        # the reverse direction therefore pays the penalty.
        r2, f2 = computer.path_inflation(switch_id(4), switch_id(3))
        assert {restricted, r2} == {1, 3} or restricted == r2 == 1


class TestHelpers:
    def test_port_on(self):
        edge = ((switch_id(0), 3), (switch_id(1), 7))
        assert port_on(edge, switch_id(0)) == 3
        assert port_on(edge, switch_id(1)) == 7
        with pytest.raises(ValueError):
            port_on(edge, switch_id(9))

    def test_switch_hops_of_skips_endpoints(self):
        view = hosted_line().view()
        computer = RouteComputer(view, switch_id(0))
        route = computer.host_route(host_id(0), host_id(1))
        hops = switch_hops_of(route.nodes, route.edges)
        assert [h[0] for h in hops] == [switch_id(0), switch_id(1), switch_id(2)]


class TestCircuits:
    def test_allocator_monotonic_and_reserved_floor(self):
        allocator = VcAllocator()
        first = allocator.allocate()
        second = allocator.allocate()
        assert first == FIRST_DATA_VC
        assert second == first + 1
        with pytest.raises(ValueError):
            VcAllocator(first=3)

    def test_circuit_flags(self):
        circuit = VirtualCircuit(
            vc=20,
            source=host_id(0),
            destination=host_id(1),
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=8,
        )
        assert circuit.is_guaranteed
        assert circuit.state is CircuitState.SETTING_UP
