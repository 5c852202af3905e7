"""Tests for bandwidth central admission control."""

import pytest

from repro._types import host_id, switch_id
from repro.core.guaranteed.bandwidth_central import (
    BandwidthCentral,
    ReservationDenied,
)
from repro.net.topology import Topology


def line_view(n=3, with_hosts=True):
    topo = Topology.line(n)
    if with_hosts:
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h1", f"s{n-1}", port_a=0)
    return topo.view()


def diamond_view():
    """s0 - s1 - s3 and s0 - s2 - s3: two disjoint paths."""
    topo = Topology()
    for i in range(4):
        topo.add_switch(i)
    topo.connect("s0", "s1")
    topo.connect("s1", "s3")
    topo.connect("s0", "s2")
    topo.connect("s2", "s3")
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", "s3", port_a=0)
    return topo.view()


class TestAdmission:
    def test_grant_along_line(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        reservation = central.request(host_id(0), host_id(1), 10)
        assert reservation.path_length == 3
        assert [n for n in reservation.route_nodes[:1]] == [host_id(0)]
        assert reservation.route_nodes[-1] == host_id(1)
        assert central.requests_granted == 1

    def test_capacity_consumed_and_denied_at_exhaustion(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        central.request(host_id(0), host_id(1), 60)
        with pytest.raises(ReservationDenied):
            central.request(host_id(0), host_id(1), 60)
        assert central.requests_denied == 1

    def test_release_restores_capacity(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        reservation = central.request(host_id(0), host_id(1), 100)
        central.release(reservation)
        central.request(host_id(0), host_id(1), 100)

    def test_release_unknown_rejected(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        reservation = central.request(host_id(0), host_id(1), 1)
        central.release(reservation)
        with pytest.raises(KeyError):
            central.release(reservation)

    def test_oversized_request_denied(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        with pytest.raises(ReservationDenied):
            central.request(host_id(0), host_id(1), 101)

    def test_request_validation(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        with pytest.raises(ValueError):
            central.request(host_id(0), host_id(1), 0)
        with pytest.raises(ValueError):
            central.request(host_id(0), host_id(0), 1)
        with pytest.raises(ReservationDenied):
            central.request(host_id(0), host_id(9), 1)

    def test_directions_independent(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        central.request(host_id(0), host_id(1), 100)
        # Reverse direction is untouched.
        central.request(host_id(1), host_id(0), 100)


class TestRouting:
    def test_second_circuit_takes_alternate_path(self):
        """With widest-shortest selection, a heavily loaded core path
        diverts new reservations to the parallel route (the shared host
        links still carry both)."""
        central = BandwidthCentral(diamond_view(), frame_slots=100)
        first = central.request(host_id(0), host_id(1), 60)
        second = central.request(host_id(0), host_id(1), 30)
        mid_first = first.route_nodes[2]
        mid_second = second.route_nodes[2]
        assert mid_first != mid_second
        assert {mid_first, mid_second} == {switch_id(1), switch_id(2)}

    def test_switch_hops_have_ports(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        reservation = central.request(host_id(0), host_id(1), 5)
        for switch, in_port, out_port in reservation.switch_hops:
            assert switch.is_switch
            assert in_port != out_port

    def test_hosts_never_relay(self):
        """A path must not pass *through* a host even if that is shorter."""
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.add_host(0)  # dual-homed to both switches
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h0", "s1", port_a=1)
        topo.add_host(1)
        topo.connect("h1", "s1", port_a=0)
        # s0 and s1 are NOT directly connected: the only s0->s1 "path"
        # runs through h0, which is illegal -- so h0 (attached to both)
        # can still reach h1, but any route must use one of h0's own
        # links, not transit another host.
        central = BandwidthCentral(topo.view(), frame_slots=10)
        reservation = central.request(host_id(0), host_id(1), 1)
        assert all(not n.is_host for n in reservation.route_nodes[1:-1])

    def test_capacity_override_respected(self):
        view = line_view()
        slow_edges = {
            edge: 25
            for edge in view.edges
            if any(n.is_host for (n, _) in edge)
        }
        central = BandwidthCentral(
            view, frame_slots=100, capacities=slow_edges
        )
        with pytest.raises(ReservationDenied):
            central.request(host_id(0), host_id(1), 26)
        central.request(host_id(0), host_id(1), 25)

    def test_total_reserved(self):
        central = BandwidthCentral(line_view(), frame_slots=100)
        central.request(host_id(0), host_id(1), 7)
        central.request(host_id(1), host_id(0), 5)
        assert central.total_reserved() == 12
