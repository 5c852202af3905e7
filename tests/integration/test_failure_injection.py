"""Failure injection: lossy links, lost credits, and resynchronization."""

import pytest

from repro._types import host_id
from repro.net.packet import Packet
from tests.conftest import (
    converged_line,
    fast_host_config,
    fast_switch_config,
    line_with_hosts,
)


def test_lost_credits_only_reduce_performance():
    """Section 5: "With credits, a lost message can only cause reduced
    performance."  We corrupt a fraction of all cells on a trunk link
    (losing credits, among others) and verify no buffer ever overflows
    and no spurious packets appear -- only throughput suffers."""
    net = converged_line(3, seed=31)
    circuit = net.setup_circuit("h0", "h1")
    link = net.link_between("s0", "s1")
    link.set_error_rate(0.02)
    h0 = net.host("h0")
    for _ in range(10):
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
    net.run(400_000)
    h1 = net.host("h1")
    # Some packets may be corrupted (lost data cells kill reassembly),
    # but nothing crashed and no overflow was recorded anywhere.
    for switch in net.switches.values():
        for card in switch.cards:
            for downstream in card.downstream.values():
                assert downstream.overflows == 0
    assert len(h1.delivered) <= 10


def test_resync_restores_throughput_after_credit_loss():
    """Surgically drop credit cells only, then let periodic resync
    recover the window and confirm full-rate delivery resumes."""
    net = line_with_hosts(2, resync_interval_us=5_000.0)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    h0 = net.host("h0")

    # First transfer primes counters.
    h0.send_packet(
        circuit.vc, Packet(source=host_id(0), destination=host_id(1), size=480)
    )
    net.run(50_000)

    # Steal credits from the switch-side upstream state: simulate loss by
    # draining balance below truth (as if credit cells were corrupted).
    s0 = net.switch("s0")
    victim_card = None
    for card in s0.cards:
        if circuit.vc in card.upstream:
            victim_card = card
            break
    assert victim_card is not None
    upstream = victim_card.upstream[circuit.vc]
    stolen = min(3, upstream.balance)
    upstream.balance -= stolen
    assert stolen > 0

    # Resync runs periodically; the balance must return to allocation.
    net.run_until(
        lambda: upstream.balance == upstream.allocation,
        timeout_us=100_000,
    )
    recovered = sum(
        r.credits_recovered for r in victim_card.upstream.values()
    )
    assert recovered >= stolen

    # And traffic still flows at full health.
    h0.send_packet(
        circuit.vc, Packet(source=host_id(0), destination=host_id(1), size=480)
    )
    net.run(100_000)
    assert len(net.host("h1").delivered) == 2


def test_data_loss_detected_by_reassembly():
    """Dropped data cells surface as reassembly errors, not as silently
    corrupted packets."""
    net = converged_line(2, seed=32)
    circuit = net.setup_circuit("h0", "h1")
    link = net.link_between("s0", "s1")
    link.set_error_rate(0.2)
    for _ in range(20):
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=48 * 10),
        )
    net.run(400_000)
    h1 = net.host("h1")
    assert h1.reassembly_errors > 0
    for packet in h1.delivered:
        assert packet.size == 480  # survivors intact


def test_network_survives_simultaneous_link_failures():
    from repro.net.network import Network
    from repro.net.topology import Topology

    topo = Topology.grid(3, 3)
    net = Network(topo, seed=33, switch_config=fast_switch_config())
    net.start()
    net.run_until_converged(timeout_us=500_000)
    net.fail_link("s0", "s1")
    net.fail_link("s4", "s5")
    net.fail_link("s7", "s8")
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    component = net.main_component_switches()
    assert len(component) == 9  # grid stays connected despite 3 cuts
    view = net.converged_view()
    assert view == net.expected_view_for(component)
