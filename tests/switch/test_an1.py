"""Tests for the AN1 packet switch and network."""

import pytest

from repro._types import host_id, switch_id
from repro.constants import AN1_FIFO_PACKETS
from repro.core.routing.paths import RouteComputer
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.an1 import An1Network
from tests.conftest import fast_an1_config


def hosted_grid(seed=5, **overrides):
    topo = Topology.grid(2, 3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", "s5", port_a=0)
    net = An1Network(topo, seed=seed, config=fast_an1_config(**overrides))
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def shared_trunk(seed=6):
    """h0 and h2 at s0 send to h1 at s1 over the one trunk s0-s1."""
    topo = Topology.line(2)
    topo.add_host(0)
    topo.add_host(1)
    topo.add_host(2)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h2", "s0", port_a=0)
    topo.connect("h1", "s1", port_a=0)
    net = An1Network(topo, seed=seed, config=fast_an1_config())
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


class TestAn1DataPath:
    def test_packets_delivered_whole(self):
        net = hosted_grid()
        h0 = net.hosts[host_id(0)]
        h1 = net.hosts[host_id(1)]
        for _ in range(5):
            h0.send_packet(
                Packet(source=host_id(0), destination=host_id(1), size=1500)
            )
        net.run(100_000)
        assert len(h1.delivered) == 5
        assert all(p.size == 1500 for p in h1.delivered)

    def test_latency_scales_with_hops_and_size(self):
        """Store-and-forward-ish serialization at 100 Mb/s: a 1500-byte
        packet costs ~120 us per hop."""
        net = hosted_grid()
        h0 = net.hosts[host_id(0)]
        h1 = net.hosts[host_id(1)]
        h0.send_packet(
            Packet(source=host_id(0), destination=host_id(1), size=1500)
        )
        net.run(100_000)
        latency = h1.delivered[0].latency
        per_hop = 1500 * 8 / 100e6 * 1e6  # ~120 us
        # Path h0-s0-...-s5-h1 has >= 4 serializations.
        assert 3 * per_hop < latency < 12 * per_hop

    def test_fifo_overflow_drops(self):
        """Two inputs share one trunk, so each input FIFO at s0 drains
        at half the rate it fills: a flood of well over
        ``AN1_FIFO_PACKETS`` per input overflows, and every packet is
        either delivered or counted."""
        net = shared_trunk()
        per_sender = 150
        assert per_sender > 2 * AN1_FIFO_PACKETS
        for sender in (host_id(0), host_id(2)):
            for _ in range(per_sender):
                net.hosts[sender].send_packet(
                    Packet(source=sender, destination=host_id(1), size=1500)
                )
        net.run(200_000)
        overflow = sum(
            s.packets_dropped_overflow for s in net.switches.values()
        )
        delivered = len(net.hosts[host_id(1)].delivered)
        assert overflow > 0
        assert delivered + overflow == 2 * per_sender
        assert net.buffered_packets() == 0

    def test_unroutable_packet_counted(self):
        net = hosted_grid()
        h0 = net.hosts[host_id(0)]
        h0.send_packet(
            Packet(source=host_id(0), destination=host_id(42), size=100)
        )
        net.run(50_000)
        dropped = sum(
            s.packets_dropped_no_route for s in net.switches.values()
        )
        assert dropped == 1


    def test_attached_host_reached_before_the_first_epoch(self):
        """A switch forwards to a host cabled to it as soon as that
        cable works, before any epoch has given it a route computer --
        the same decision an AN2 circuit setup makes."""
        topo = Topology.line(2)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h1", "s0", port_a=0)
        net = An1Network(topo, seed=3, config=fast_an1_config())
        net.start()
        s0 = net.switches[switch_id(0)]
        while s0.port_facing(host_id(1)) is None:
            assert net.sim.now < 20_000
            net.run(50)
        assert s0.route_computer() is None
        net.hosts[host_id(0)].send_packet(
            Packet(source=host_id(0), destination=host_id(1), size=100)
        )
        net.run(1_000)
        assert len(net.hosts[host_id(1)].delivered) == 1
        assert s0.packets_dropped_no_route == 0


class TestAn1Reconfiguration:
    def test_control_plane_shared_with_an2(self):
        net = hosted_grid()
        views = {s.reconfig.view for s in net.switches.values()}
        assert len(views) == 1
        assert next(iter(views)) == net.topology.view()

    def test_packets_in_transit_dropped_on_reconfig(self):
        """Section 2: "all packets in transit are dropped when a
        reconfiguration begins".

        Two senders share one trunk so switch FIFOs hold standing
        queues when the reconfiguration hits.
        """
        net = shared_trunk()
        for sender in (host_id(0), host_id(2)):
            for _ in range(15):
                net.hosts[sender].send_packet(
                    Packet(source=sender, destination=host_id(1), size=1500)
                )
        # Both 100 Mb/s host links feed one 100 Mb/s trunk: FIFOs at s0
        # hold a standing queue after a few serializations.
        net.run(1_000.0)
        assert net.buffered_packets() > 0
        net.switches[switch_id(0)].reconfig.trigger()
        net.run(500_000)
        assert net.total_dropped_on_reconfig() > 0
        delivered = len(net.hosts[host_id(1)].delivered)
        assert delivered < 30  # the drop is user-visible in AN1

    def test_link_failure_reconfigures_and_recovers_routing(self):
        net = hosted_grid()
        h0 = net.hosts[host_id(0)]
        h1 = net.hosts[host_id(1)]
        # Fail a link, wait for the new view, then send.
        net.fail_link("s1", "s4")
        net.run(100_000)
        h0.send_packet(
            Packet(source=host_id(0), destination=host_id(1), size=500)
        )
        net.run(100_000)
        assert len(h1.delivered) == 1

    def test_partition_converges_per_fragment(self):
        """The installation verbs are the shared ones: cutting the middle
        trunk of a line splits it into two epochs, each agreeing on a
        view of exactly its own switches."""
        topo = Topology.line(4)
        net = An1Network(topo, seed=3, config=fast_an1_config())
        net.start()
        net.run_until_converged(timeout_us=500_000)
        net.fail_link("s1", "s2")
        net.run_until(
            lambda: net.converged()
            and len({s.reconfig.view_tag for s in net.switches.values()}) == 2,
            timeout_us=500_000,
        )
        for fragment in (("s0", "s1"), ("s2", "s3")):
            views = {net.switch(s).reconfig.view for s in fragment}
            assert len(views) == 1
            assert set(views.pop().switches()) == {
                net.switch(s).node_id for s in fragment
            }
        assert net.main_component_switches() == [switch_id(0), switch_id(1)]


def test_routing_bug_is_not_reported_as_no_route(monkeypatch):
    """Only a RoutingError means "no route"; any other exception out of
    the route computer is a bug and escapes the run."""
    net = hosted_grid()

    def broken(self, host, preferred_port=0):
        raise TypeError("broken attachment")

    monkeypatch.setattr(RouteComputer, "attachment", broken)
    net.hosts[host_id(0)].send_packet(
        Packet(source=host_id(0), destination=host_id(1), size=100)
    )
    with pytest.raises(TypeError, match="broken attachment"):
        net.run(50_000)
