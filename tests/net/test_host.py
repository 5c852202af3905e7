"""Host controller behaviour: pacing, credits, failover, resync."""

import pytest

from repro._types import host_id, switch_id
from repro.core.reconfig.skeptic import LinkVerdict
from repro.net.cell import TrafficClass
from repro.net.packet import Packet
from tests.conftest import converged_line, line_with_hosts


class TestSending:
    def test_send_requires_open_circuit(self, small_net):
        host = small_net.host("h0")
        with pytest.raises(KeyError):
            host.send_packet(
                999, Packet(source=host_id(0), destination=host_id(1))
            )
        with pytest.raises(KeyError):
            host.send_raw_cells(999, 1)

    def test_duplicate_circuit_rejected(self, small_net):
        host = small_net.host("h0")
        host.open_circuit(500, host_id(1), send_setup=False)
        with pytest.raises(ValueError):
            host.open_circuit(500, host_id(1), send_setup=False)

    def test_guaranteed_circuit_requires_rate(self, small_net):
        host = small_net.host("h0")
        with pytest.raises(ValueError):
            host.open_circuit(
                501, host_id(1), traffic_class=TrafficClass.GUARANTEED
            )

    def test_best_effort_pacing_respects_credits(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        host = net.host("h0")
        window = host.credits[0].upstream[circuit.vc]
        allocation = window.allocation
        host.send_packet(
            circuit.vc,
            Packet(
                source=host_id(0),
                destination=host_id(1),
                size=48 * (allocation + 20),
            ),
        )
        net.run(200)
        # At no point may more than `allocation` cells be unacknowledged.
        assert window.cells_sent - window.credits_received <= allocation
        net.run(300_000)
        assert len(net.host("h1").delivered) == 1

    def test_round_robin_across_circuits(self, small_net):
        net = small_net
        a = net.setup_circuit("h0", "h1")
        b = net.setup_circuit("h0", "h1")
        host = net.host("h0")
        for vc in (a.vc, b.vc):
            host.send_packet(
                vc,
                Packet(source=host_id(0), destination=host_id(1), size=480),
            )
        net.run(300_000)
        assert len(net.host("h1").delivered) == 2

    def test_cbr_pacer_spaces_cells(self, small_net):
        net = small_net
        circuit, _ = net.reserve_bandwidth("h0", "h1", 2)  # 2 cells/32-slot frame
        net.run(2_000)
        net.host("h0").send_raw_cells(circuit.vc, 10)
        net.run(200_000)
        arrivals = net.host("h1").cell_arrivals[circuit.vc]
        assert len(arrivals) == 10
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # The switches re-time cells onto their reserved slots, which may
        # sit adjacent within the frame -- but the *average* spacing must
        # equal the reserved rate (frame/2 ~ 10.9 us at 32 slots), and no
        # gap may exceed a frame plus slack (the jitter bound).
        frame_us = 32 * 0.6817
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(frame_us / 2, rel=0.15)
        assert max(gaps) < 2 * frame_us


class TestReceiving:
    def test_credit_returned_per_best_effort_cell(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
        net.run(100_000)
        h1 = net.host("h1")
        assert h1.cells_received == 10
        assert h1.received_counts[circuit.vc] == 10

    def test_latency_tallies_per_vc(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=96),
        )
        net.run(100_000)
        tally = net.host("h1").cell_latency[circuit.vc]
        assert tally.count == 2
        assert tally.mean > 0


class TestFailover:
    def test_primary_death_switches_to_alternate(self):
        net = line_with_hosts(2)
        # Add an alternate host link: h0 port 1 to s1.
        net_topology_issue = None
        # (line_with_hosts gives single-homed hosts; build a custom one.)
        from repro.net.network import Network
        from repro.net.topology import Topology
        from tests.conftest import fast_host_config, fast_switch_config

        topo = Topology.line(2)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h0", "s1", port_a=1, bps=622_000_000)
        topo.connect("h1", "s1", port_a=0, bps=622_000_000)
        net = Network(
            topo,
            seed=4,
            switch_config=fast_switch_config(),
            host_config=fast_host_config(),
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        h0 = net.host("h0")
        assert h0.active_port_index == 0
        failovers = []
        h0.failover.subscribe(failovers.append)
        net.fail_link("h0", "s0")
        net.run_until(
            lambda: h0.active_port_index == 1, timeout_us=100_000
        )
        assert failovers == [1]
        # A fresh circuit over the alternate link delivers traffic.
        circuit = net.setup_circuit("h0", "h1")
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"alt"),
        )
        net.run(100_000)
        assert [p.payload for p in net.host("h1").delivered] == [b"alt"]


class TestQueueVisibility:
    def test_queued_cells_counts(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        host = net.host("h0")
        host.open_circuit(900, host_id(1), send_setup=False)
        host.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=48 * 5),
        )
        assert host.queued_cells() >= 0  # drains fast; just exercise it
        net.run(50_000)
        assert host.queued_cells() == 0

    def test_close_circuit_idempotent(self, small_net):
        host = small_net.host("h0")
        host.open_circuit(901, host_id(1), send_setup=False)
        host.close_circuit(901)
        host.close_circuit(901)  # no-op
