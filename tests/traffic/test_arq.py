"""Tests for the go-back-N ARQ layer and drop-mode flow control."""

import pytest

from repro._types import host_id
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig
from repro.traffic.arq import _ACK_MARK, _HEADER, ArqTransfer, _frame


def drop_net(seed=78, credit_allocation=8):
    topo = Topology.line(2)
    for h in range(4):
        topo.add_host(h)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h2", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=0, bps=622_000_000)
    topo.connect("h3", "s1", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=32,
            flow_control="drop",
            credit_allocation=credit_allocation,  # the buffer bound
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
            boot_reconfig_delay_us=1_500.0,
        ),
        host_config=HostConfig(
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


class TestDropMode:
    def test_uncongested_traffic_flows_without_credit_state(self):
        net = drop_net()
        circuit = net.setup_circuit("h0", "h1")
        assert circuit.vc not in net.host("h0").credits[0].upstream
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
        net.run(100_000)
        assert len(net.host("h1").delivered) == 1
        # No credit cells crossed any link.
        credits = sum(s.stats.credits_sent for s in net.switches.values())
        assert credits == 0

    def test_congestion_drops_cells(self):
        net = drop_net(credit_allocation=4)
        a = net.setup_circuit("h0", "h1")
        b = net.setup_circuit("h2", "h3")
        for circuit, src, dst in ((a, 0, 1), (b, 2, 3)):
            for _ in range(40):
                net.host(f"h{src}").send_packet(
                    circuit.vc,
                    Packet(
                        source=host_id(src),
                        destination=host_id(dst),
                        size=48 * 20,
                    ),
                )
        net.run(1_000_000)
        assert net.total_cells_dropped() > 0
        assert (
            net.host("h1").reassembly_errors
            + net.host("h3").reassembly_errors
            > 0
        )


class TestArq:
    def arq_pair(self, net, n_packets=20, **kwargs):
        fwd = net.setup_circuit("h0", "h1")
        rev = net.setup_circuit("h1", "h0")
        return ArqTransfer(
            net.sim,
            net.host("h0"),
            net.host("h1"),
            fwd.vc,
            rev.vc,
            n_packets=n_packets,
            packet_bytes=480,
            timeout_us=3_000.0,
            **kwargs,
        )

    def test_clean_network_no_retransmissions(self):
        net = drop_net()
        arq = self.arq_pair(net)
        arq.start()
        net.run(1_000_000)
        assert arq.done
        assert arq.retransmissions == 0
        assert arq.efficiency == 1.0

    def test_reliable_despite_congestion(self):
        net = drop_net(credit_allocation=4)
        flood = net.setup_circuit("h2", "h3")
        for _ in range(120):
            net.host("h2").send_packet(
                flood.vc,
                Packet(source=host_id(2), destination=host_id(3), size=48 * 40),
            )
        arq = self.arq_pair(net, n_packets=30)
        arq.start()
        net.run(6_000_000)
        assert arq.done
        assert arq.retransmissions > 0
        assert arq.efficiency < 1.0  # the waste credits avoid

    def test_window_respected(self):
        net = drop_net()
        arq = self.arq_pair(net, window=3)
        arq.start()
        # Immediately after start only `window` packets are outstanding.
        assert arq.next_seq - arq.base <= 3
        net.run(1_000_000)
        assert arq.done

    def test_validation(self):
        net = drop_net()
        with pytest.raises(ValueError):
            self.arq_pair(net, window=0)
        with pytest.raises(ValueError):
            self.arq_pair(net, n_packets=0)

    def test_ack_mark_compared_by_value(self):
        """Regression: the ack check must use equality, not identity.

        ``_parse`` unpacks the mark with ``struct``, so it is a fresh
        int object (0xACC0 = 44224, far outside CPython's small-int
        cache) that is never the *same object* as the module constant.
        An ``is``-based guard silently ignored every ack; the sender
        then never slid its window and retransmitted forever.
        """
        net = drop_net()
        arq = self.arq_pair(net)
        arq.start()
        assert arq.base == 0
        ack = Packet(
            source=host_id(1),
            destination=host_id(0),
            payload=_frame(_ACK_MARK, 4, _HEADER.size),
        )
        arq._on_sender_packet(ack)
        assert arq.base == 5  # the cumulative ack advanced the window

    def test_severed_circuit_fails_terminally(self):
        """A transfer whose data path dies must park in ``failed`` after
        ``max_retries`` fruitless timeout rounds -- not retransmit its
        window every timeout until the end of time."""
        net = drop_net()
        arq = self.arq_pair(
            net, n_packets=30, max_retries=3, backoff=2.0, pacing_us=1_000.0
        )
        arq.start()
        net.run(5_000)  # a few paced packets get through first
        assert arq.base > 0
        net.link_between("s0", "s1").fail()
        net.run(4_000_000)
        assert arq.failed
        assert not arq.done
        # Exactly max_retries fruitless rounds ran after the last ack;
        # nothing is left armed (no event storm against a dead circuit).
        assert arq.timeouts <= 3 + arq.base  # progress resets the count
        assert arq._timer is None
        assert arq._pace_event is None
        transmitted_at_failure = arq.packets_transmitted
        net.run(4_000_000)
        assert arq.packets_transmitted == transmitted_at_failure

    def test_backoff_grows_timeout_between_rounds(self):
        net = drop_net()
        arq = self.arq_pair(net, n_packets=10, max_retries=3, backoff=2.0)
        arq.start()
        # Kill the path immediately: no ack ever arrives.
        net.link_between("h0", "s0").fail()
        net.run(2_000_000)
        assert arq.failed
        assert arq.timeouts == 3
        # Each fruitless round doubled the interval: 3ms, 6ms, 12ms.
        assert arq._current_timeout_us == arq.timeout_us * 2.0 ** 3

    def test_pacing_spreads_first_transmissions(self):
        net = drop_net()
        arq = self.arq_pair(net, n_packets=20, pacing_us=1_000.0)
        arq.start()
        # Pacing overrides the window blast: only the first packet goes
        # out at start time.
        assert arq.next_seq == 1
        net.run(1_000_000)
        assert arq.done
        assert arq.retransmissions == 0
        # 20 sends at 1ms spacing cannot complete before 19ms.
        assert arq.completed_at >= 19_000.0

    def test_new_knob_validation(self):
        net = drop_net()
        with pytest.raises(ValueError):
            self.arq_pair(net, max_retries=0)
        with pytest.raises(ValueError):
            self.arq_pair(net, backoff=0.5)
        with pytest.raises(ValueError):
            self.arq_pair(net, pacing_us=-1.0)

    def test_works_over_credit_network_too(self, small_net):
        """ARQ is harmless over the lossless network: zero
        retransmissions, it just adds acks."""
        net = small_net
        fwd = net.setup_circuit("h0", "h1")
        rev = net.setup_circuit("h1", "h0")
        arq = ArqTransfer(
            net.sim,
            net.host("h0"),
            net.host("h1"),
            fwd.vc,
            rev.vc,
            n_packets=10,
            packet_bytes=480,
            timeout_us=10_000.0,
        )
        arq.start()
        net.run(1_000_000)
        assert arq.done
        assert arq.retransmissions == 0
