"""Tests for route computation and circuit bookkeeping."""

import pytest

from repro._types import host_id, switch_id
from repro.core.routing.circuits import (
    FIRST_DATA_VC,
    CircuitState,
    VcAllocator,
    VirtualCircuit,
)
from repro.core.routing.paths import RouteComputer, RoutingError, port_on
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


class TestHelpers:
    def test_port_on(self):
        edge = ((switch_id(0), 3), (switch_id(1), 7))
        assert port_on(edge, switch_id(0)) == 3
        assert port_on(edge, switch_id(1)) == 7
        with pytest.raises(ValueError):
            port_on(edge, switch_id(9))


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
        assert circuit.traffic_class is TrafficClass.GUARANTEED
        assert circuit.cells_per_frame == 8
        assert circuit.state is CircuitState.SETTING_UP
