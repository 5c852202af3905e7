"""Event-driven switch behaviour observed through small networks."""

import pytest

from repro._types import host_id, switch_id
from repro.core.flowcontrol.resync import ResyncRequest
from repro.core.reconfig.skeptic import LinkVerdict
from repro.net.cell import Cell, TrafficClass
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import (
    converged_line,
    fast_host_config,
    fast_switch_config,
    line_with_hosts,
)


class TestDataPath:
    def test_cut_through_latency_lightly_loaded(self, small_net):
        """E14 (network flavour): a single cell crosses each switch in a
        couple of microseconds when nothing contends."""
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"f" * 40),
        )
        net.run(50_000)
        [packet] = net.host("h1").delivered
        # 3 switches x (~slot + control) + 4 links' serialization+latency:
        # generous bound of 30 us; the point is microseconds, not millis.
        assert packet.latency < 30.0

    def test_credit_accounting_balances_after_quiescence(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"q" * 960),
        )
        net.run(100_000)
        # All cells delivered; every upstream balance restored to its
        # allocation; every downstream buffer empty.
        assert len(net.host("h1").delivered) == 1
        for switch in net.switches.values():
            for card in switch.cards:
                for vc, upstream in card.upstream.items():
                    assert upstream.balance == upstream.allocation
                for vc, downstream in card.downstream.items():
                    assert downstream.occupied == 0
        window = net.host("h0").credits[0].upstream[circuit.vc]
        assert window.balance == window.allocation

    def test_no_cell_loss_under_sustained_load(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        for _ in range(20):
            net.host("h0").send_packet(
                circuit.vc,
                Packet(source=host_id(0), destination=host_id(1), payload=b"z" * 480),
            )
        net.run(300_000)
        assert len(net.host("h1").delivered) == 20
        assert net.total_cells_dropped() == 0
        assert net.host("h1").reassembly_errors == 0

    def test_per_output_stats_populated(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"s" * 96),
        )
        net.run(50_000)
        s1 = net.switch("s1")
        assert s1.stats.cells_forwarded >= 2
        assert sum(s1.stats.per_output_forwarded.values()) == s1.stats.cells_forwarded


class TestGuaranteedPath:
    def test_reservation_installs_schedule(self, small_net):
        net = small_net
        circuit, reservation = net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        for switch_ref in ("s0", "s1", "s2"):
            schedule = net.switch(switch_ref).frame_schedule
            assert schedule.total_reserved() == 4

    def test_guaranteed_cells_bypass_credits(self, small_net):
        net = small_net
        circuit, _ = net.reserve_bandwidth("h0", "h1", 4)
        net.run(2_000)
        net.host("h0").send_raw_cells(circuit.vc, 50)
        net.run(200_000)
        assert net.host("h1").cells_received == 50
        # No credit state was created for the guaranteed circuit.
        for switch in net.switches.values():
            for card in switch.cards:
                assert circuit.vc not in card.upstream
                assert circuit.vc not in card.downstream

    def test_reserved_only_slots_call_no_matcher(self, small_net):
        """A switch carrying only a reserved stream forwards every cell
        without asking the crossbar's matcher (nothing is left to match
        once the reservations took their outputs)."""
        net = small_net
        circuit, _ = net.reserve_bandwidth("h0", "h1", 4)
        net.run(2_000)
        s1 = net.switch("s1")
        assert s1.crossbar.slots == 0
        net.host("h0").send_raw_cells(circuit.vc, 40)
        net.run(200_000)
        assert net.host("h1").cells_received == 40
        assert s1.stats.guaranteed_forwarded == 40
        assert s1.crossbar.slots == 0

    def test_release_restores_schedule(self, small_net):
        net = small_net
        circuit, reservation = net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        for switch_ref, in_port, out_port in [
            (str(s), i, o) for (s, i, o) in reservation.switch_hops
        ]:
            net.switch(switch_ref).remove_reservation(in_port, out_port, 4)
        for switch_ref in ("s0", "s1", "s2"):
            assert net.switch(switch_ref).frame_schedule.total_reserved() == 0


class TestControlPlane:
    def test_reconfig_ports_exclude_host_links(self, small_net):
        s0 = small_net.switch("s0")
        ports = s0.reconfig_ports()
        for port_index in ports:
            neighbor = s0.neighbor(port_index)
            assert neighbor[0].is_switch

    def test_local_edges_include_host_links(self, small_net):
        s0 = small_net.switch("s0")
        edges = s0.local_edges()
        host_edges = [
            e for e in edges if any(n.is_host for (n, _) in e)
        ]
        assert len(host_edges) == 1

    def test_dead_port_excluded_from_reconfig_ports(self):
        net = converged_line(3)
        s1 = net.switch("s1")
        before = len(s1.reconfig_ports())
        net.fail_link("s1", "s2")
        net.run_until(
            lambda: len(s1.reconfig_ports()) == before - 1,
            timeout_us=100_000,
        )

    def test_buffered_cells_reported(self, small_net):
        assert small_net.switch("s1").buffered_cells() == 0


def two_hosts_one_switch():
    """h0 and h1 on ports 0 and 1 of a single switch, equal cables."""
    topo = Topology()
    topo.add_switch(0)
    for h in (0, 1):
        topo.add_host(h)
        topo.connect(f"h{h}", "s0", port_a=0, bps=622_000_000)
    net = Network(
        topo, seed=2,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


class TestWastedMatch:
    def test_credit_cell_takes_the_wire_of_a_later_pair(self):
        """Two cells cross in one slot: 0 -> 1 and 1 -> 0.  Serving the
        first pair returns its credit through port 0, so the second pair,
        matched onto output 0 in the same slot, finds the wire taken and
        moves nothing until the next slot (credits compete with data for
        the link; see DESIGN section 4)."""
        net = two_hosts_one_switch()
        there = net.setup_circuit("h0", "h1")
        back = net.setup_circuit("h1", "h0")
        s0 = net.switch("s0")
        assert s0.stats.wasted_matches == 0
        for circuit, src in ((there, "h0"), (back, "h1")):
            net.host(src).send_raw_cells(circuit.vc, 1)
        slots_before = s0.crossbar.slots
        net.run(1_000)
        assert s0.stats.wasted_matches == 1
        # One slot matched both pairs, the next re-matched the loser.
        assert s0.crossbar.slots == slots_before + 2
        assert net.host("h0").cells_received == 1
        assert net.host("h1").cells_received == 1
        gauges = net.metrics_snapshot()["switch.s0"]["gauges"]
        assert gauges["wasted_matches"] == 1


class TestOverflowHandling:
    def test_overflow_is_counted_not_raised(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        s1 = net.switch("s1")
        in_port = s1._vc_in_port[circuit.vc]
        allocation = s1.cards[in_port].downstream[circuit.vc].allocation
        dropped = s1.stats.cells_dropped
        for _ in range(allocation + 2):  # a byzantine upstream
            s1.on_cell(s1.ports[in_port], Cell(vc=circuit.vc))
        assert s1.stats.cells_dropped == dropped + 2
        assert s1.cards[in_port].downstream[circuit.vc].overflows == 2

    def test_other_errors_from_the_credit_state_propagate(self, small_net):
        """Only CreditError means "upstream overran us"; a bug in the
        bookkeeping must not be filed as a dropped cell."""
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        s1 = net.switch("s1")
        in_port = s1._vc_in_port[circuit.vc]

        def broken():
            raise RuntimeError("bookkeeping bug")

        s1.cards[in_port].downstream[circuit.vc].receive = broken
        dropped = s1.stats.cells_dropped
        with pytest.raises(RuntimeError, match="bookkeeping bug"):
            s1.on_cell(s1.ports[in_port], Cell(vc=circuit.vc))
        assert s1.stats.cells_dropped == dropped


class TestLocalRerouteState:
    def test_reroute_drops_the_old_ports_resync_state(self):
        """The old output port forgets the circuit entirely: no window,
        and so no resync request on a wire the circuit no longer uses."""
        topo = Topology.grid(2, 2)
        for h, s in ((0, 0), (1, 3)):
            topo.add_host(h)
            topo.connect(f"h{h}", f"s{s}", port_a=0, bps=622_000_000)
        net = Network(
            topo, seed=3,
            switch_config=fast_switch_config(
                enable_local_reroute=True, resync_interval_us=2_000.0
            ),
            host_config=fast_host_config(),
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        s0 = net.switch("s0")
        in_port = s0._vc_in_port[circuit.vc]
        old_out = s0.cards[in_port].routing_table.lookup(circuit.vc).out_port
        assert circuit.vc in s0.cards[old_out].upstream
        neighbor = s0.neighbor(old_out)[0]
        net.fail_link("s0", str(neighbor))
        net.run_until(lambda: s0.stats.reroutes >= 1, timeout_us=100_000)

        resyncs_on_old_port = []
        port = s0.ports[old_out]
        real_send = port.send

        def send(cell, *args, **kwargs):
            if isinstance(cell.payload, ResyncRequest):
                resyncs_on_old_port.append(cell)
            real_send(cell, *args, **kwargs)

        port.send = send
        net.run(10_000)  # five resync rounds
        assert circuit.vc not in s0.cards[old_out].upstream
        assert resyncs_on_old_port == []
