"""Tests for the section-2 extensions: circuit paging and local
reroute."""

import pytest

from benchmarks.bench_e9_credit_flow_control import LINK_KM, build_net
from repro._types import host_id, switch_id
from repro.core.flowcontrol.sizing import round_trip_cells
from repro.core.routing.paging import PagingDaemon
from repro.core.routing.paths import RouteComputer
from repro.core.routing.reroute import installed_path
from repro.faults.scenarios import scenario_host_config, scenario_switch_config
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config, line_with_hosts


def paging_net(**overrides):
    net = line_with_hosts(3, enable_paging=True, paging_idle_us=5_000.0, **overrides)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


class TestPaging:
    def test_idle_circuit_paged_out_and_back_in(self):
        net = paging_net()
        circuit = net.setup_circuit("h0", "h1")
        h0, h1 = net.host("h0"), net.host("h1")
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"one"),
        )
        net.run(30_000)
        assert len(h1.delivered) == 1
        # Let it idle, then page out at s0.
        s0 = net.switch("s0")
        net.run(20_000)
        assert s0.page_out(circuit.vc)
        assert s0.circuits[circuit.vc].state == "paged"
        assert s0.stats.page_outs == 1
        # Downstream cascade (s1, s2 idle too).
        net.run(5_000)
        assert net.switch("s1").stats.page_outs + net.switch("s2").stats.page_outs >= 1
        # New traffic pages it back in transparently.
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"two"),
        )
        net.run(60_000)
        assert [p.payload for p in h1.delivered] == [b"one", b"two"]
        assert s0.stats.page_ins == 1

    def test_daemon_pages_idle_circuits(self):
        net = paging_net()
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"x"),
        )
        net.run(10_000)
        daemon = PagingDaemon(
            net.switch("s0"), idle_threshold_us=5_000.0, scan_interval_us=2_000.0
        )
        daemon.start()
        net.run(20_000)
        assert daemon.pages_initiated >= 1
        assert net.switch("s0").circuits[circuit.vc].state == "paged"

    def test_active_circuit_not_paged(self):
        net = paging_net()
        circuit = net.setup_circuit("h0", "h1")
        daemon = PagingDaemon(
            net.switch("s0"), idle_threshold_us=1e9, scan_interval_us=2_000.0
        )
        daemon.start()
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"y"),
        )
        net.run(30_000)
        assert daemon.pages_initiated == 0
        assert len(net.host("h1").delivered) == 1

    def test_guaranteed_circuit_is_not_paged_out(self):
        """A page-in regenerates the setup, not the frame slots: paging
        out a circuit that holds them would leak them for good (E9d's
        line network, 2 cells per frame)."""
        net = build_net(2 * round_trip_cells(LINK_KM))
        switches = list(net.switches.values())
        stream, _ = net.reserve_bandwidth("h0", "h1", 2)
        net.run(100.0)
        assert not switches[0].page_out(stream.vc)
        assert [s.frame_schedule.total_reserved() for s in switches] == [2, 2]
        assert switches[0].stats.page_outs == 0
        net.host("h0").close_circuit(stream.vc)
        net.run(5_000.0)
        assert [s.frame_schedule.total_reserved() for s in switches] == [0, 0]

    def test_daemon_validation(self):
        net = paging_net()
        with pytest.raises(ValueError):
            PagingDaemon(net.switch("s0"), idle_threshold_us=0.0)

    def test_restart_keeps_one_scan_loop(self):
        net = paging_net()
        daemon = PagingDaemon(net.switch("s0"), scan_interval_us=2_000.0)
        scans = []
        daemon.scan_once = lambda: scans.append(net.now) or []
        daemon.start()
        daemon.stop()
        daemon.start()
        start = net.now
        net.run(10_000)
        # One scan per interval: a stopped loop left running would double it.
        expected = [start + 2_000.0 * k for k in range(1, 6)]
        assert scans == pytest.approx(expected)
        daemon.stop()
        net.run(10_000)
        assert len(scans) == 5


def diamond_net(**overrides):
    """h0 - s0 - {s1 | s2} - s3 - h1: two disjoint core paths."""
    topo = Topology()
    for i in range(4):
        topo.add_switch(i)
    topo.connect("s0", "s1")
    topo.connect("s1", "s3")
    topo.connect("s0", "s2")
    topo.connect("s2", "s3")
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s3", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=7,
        switch_config=fast_switch_config(**overrides),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


class TestLocalReroute:
    def test_circuit_rerouted_around_failed_link(self):
        net = diamond_net()
        circuit = net.setup_circuit("h0", "h1")
        path_before = installed_path(net, circuit.vc, host_id(0))
        mid_before = path_before[2]  # the core switch used
        other = switch_id(2) if mid_before == switch_id(1) else switch_id(1)
        net.fail_link("s0", str(mid_before))
        # Wait for detection + reroute.
        net.run_until(
            lambda: net.switch("s0").stats.reroutes >= 1, timeout_us=100_000
        )
        net.run(20_000)
        path_after = installed_path(net, circuit.vc, host_id(0))
        assert other in path_after
        # Traffic flows on the new path.
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"rerouted"),
        )
        net.run(60_000)
        assert [p.payload for p in net.host("h1").delivered] == [b"rerouted"]

    def test_unaffected_circuits_untouched(self):
        net = diamond_net()
        a = net.setup_circuit("h0", "h1")
        b = net.setup_circuit("h0", "h1")
        paths = {
            vc: installed_path(net, vc, host_id(0))[2] for vc in (a.vc, b.vc)
        }
        # Find a core link used by exactly one of them, if they diverge;
        # otherwise fail the unused path's link and assert nothing breaks.
        used = set(paths.values())
        unused_mid = (
            (switch_id(1) if switch_id(2) in used else switch_id(2))
            if len(used) == 1
            else None
        )
        if unused_mid is not None:
            net.fail_link("s0", str(unused_mid))
            net.run(50_000)
            assert net.switch("s0").stats.reroutes == 0
            for vc in (a.vc, b.vc):
                assert unused_mid not in installed_path(net, vc, host_id(0))

    def test_broken_counted_when_no_detour(self):
        net = line_with_hosts(3)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        net.fail_link("s1", "s2")  # no alternative on a line
        net.run_until(
            lambda: net.switch("s1").stats.broken_circuits >= 1,
            timeout_us=100_000,
        )

    def test_routing_bug_escapes_the_reroute(self, monkeypatch):
        net = diamond_net()
        circuit = net.setup_circuit("h0", "h1")
        mid = installed_path(net, circuit.vc, host_id(0))[2]

        def broken(self, host, preferred_port=0):
            raise TypeError("broken attachment")

        monkeypatch.setattr(RouteComputer, "attachment", broken)
        net.fail_link("s0", str(mid))
        with pytest.raises(TypeError, match="broken attachment"):
            net.run(100_000)


    def test_guaranteed_circuit_counted_broken_not_moved(self):
        """A reroute would carry a guaranteed circuit onto a path with no
        frame reservation: it is refused and counted broken, and no
        switch on the detour installs the circuit."""
        net = diamond_net()
        circuit, _ = net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        mid = installed_path(net, circuit.vc, host_id(0))[2]
        other = net.switch("s2" if mid == switch_id(1) else "s1")
        s0 = net.switch("s0")
        net.fail_link("s0", str(mid))
        net.run_until(
            lambda: s0.stats.broken_circuits >= 1, timeout_us=100_000
        )
        net.run(20_000)
        assert s0.stats.reroutes == 0
        assert circuit.vc not in other.circuits

    def test_gone_down_circuit_takes_a_down_only_detour(self):
        """The circuit has already gone down where the cable breaks: the
        reroute must search the down-only continuations around it."""
        topo = Topology.grid(3, 3)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h1", "s5", port_a=0)
        net = Network(
            topo,
            seed=1,
            switch_config=scenario_switch_config(),
            host_config=scenario_host_config(),
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        net.run(5_000)
        assert installed_path(net, circuit.vc, host_id(0))[2:4] == [
            switch_id(1), switch_id(2)
        ]
        s1 = net.switch("s1")
        entry = s1.cards[s1.circuits[circuit.vc].in_port].routing_table.lookup(
            circuit.vc
        )
        assert entry.request.gone_down
        orientation = s1.route_computer().orientation
        cut = s1.edge_on_port(entry.out_port)
        assert switch_id(5) in down_only_reach(orientation, switch_id(1), cut)

        net.fail_link("s1", "s2")
        net.run_until(net.converged, timeout_us=500_000)
        net.run(100_000)
        assert (s1.stats.reroutes, s1.stats.broken_circuits) == (1, 0)
        h1 = net.host("h1")
        before = len(h1.delivered)
        for i in range(20):
            net.host("h0").send_packet(
                circuit.vc,
                Packet(source=host_id(0), destination=host_id(1), payload=b"%d" % i),
            )
        net.run(200_000)
        assert len(h1.delivered) - before == 20


def down_only_reach(orientation, start, blocked_edge):
    """Switches reachable from ``start`` by down traversals alone,
    never crossing ``blocked_edge`` (brute force over the view)."""
    reached = {start}
    frontier = [start]
    while frontier:
        here = frontier.pop()
        for edge in orientation.view.edges:
            (a, _), (b, _) = edge
            if edge == blocked_edge or here not in (a, b):
                continue
            there = b if here == a else a
            if not there.is_switch or there in reached:
                continue
            if not orientation.is_up_traversal(edge, here):
                reached.add(there)
                frontier.append(there)
    return reached

