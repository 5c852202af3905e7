"""Surgical credit-cell loss across real links, recovered by resync.

This drives the full section-5 story end to end: credit cells (and only
credit cells) are corrupted on the wire with various probabilities; the
window shrinks, throughput degrades but *nothing is ever lost*, and the
periodic resynchronization protocol restores the full window.
"""

import random

import pytest

from repro._types import host_id
from repro.conform.oracle import plain_credit_filter
from repro.faults.invariants import check_credit_conservation
from repro.net.packet import Packet
from tests.conftest import line_with_hosts


def resync_net(**overrides):
    net = line_with_hosts(2, resync_interval_us=4_000.0, **overrides)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


@pytest.mark.parametrize("loss", [0.1, 0.3])
def test_credit_loss_degrades_then_recovers(loss):
    net = resync_net()
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s0", "s1")
    rng = random.Random(17)
    trunk.drop_filter = plain_credit_filter(rng, loss)

    h0, h1 = net.host("h0"), net.host("h1")
    for _ in range(10):
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
    net.run(600_000)
    # Losslessness despite the credit bleed: every packet arrives.
    assert len(h1.delivered) == 10
    assert net.total_cells_dropped() == 0
    assert trunk.cells_corrupted > 0  # the filter really fired

    # After quiescence + resync rounds, every window is whole again.
    trunk.drop_filter = None
    net.run(50_000)
    for switch in net.switches.values():
        for card in switch.cards:
            for upstream in card.upstream.values():
                assert upstream.balance == upstream.allocation
    recovered = sum(
        r.credits_recovered
        for switch in net.switches.values()
        for card in switch.cards
        for r in card.upstream.values()
    )
    assert recovered > 0


def test_total_credit_loss_stalls_until_resync():
    """Drop *every* plain credit on the trunk: the sender exhausts its
    window and stalls; only resync keeps data moving."""
    net = resync_net()
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s0", "s1")
    trunk.drop_filter = plain_credit_filter(random.Random(1), 1.0)

    h0, h1 = net.host("h0"), net.host("h1")
    h0.send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), size=48 * 120),
    )
    net.run(2_000_000)
    # Throughput is terrible (one window per resync period) but complete.
    assert h1.cells_received == 120
    assert len(h1.delivered) == 1


def test_total_credit_loss_on_the_access_link_recovers():
    """The first hop is a link like any other: the *host* arms resync
    rounds too.  Regression: it never sent a request, so this run
    delivered 5 of 120 cells and left the host at balance 0/5 forever."""
    net = resync_net()
    circuit = net.setup_circuit("h0", "h1")
    access = net.link_between("h0", "s0")
    access.drop_filter = plain_credit_filter(random.Random(1), 1.0)

    h0, h1 = net.host("h0"), net.host("h1")
    h0.send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), size=48 * 120),
    )
    net.run(2_000_000)
    assert h1.cells_received == 120
    assert len(h1.delivered) == 1
    assert net.total_cells_dropped() == 0

    access.drop_filter = None
    net.run(50_000)
    window = h0.credits[0].upstream[circuit.vc]
    assert window.balance == window.allocation
    assert window.credits_recovered > 0
    assert check_credit_conservation(net).passed


def test_without_resync_total_loss_deadlocks_the_circuit():
    """The contrast: resync disabled, total credit loss freezes the VC
    after one window -- exactly why the paper calls resynchronization
    necessary for performance recovery."""
    net = line_with_hosts(2, resync_interval_us=0.0)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s0", "s1")
    trunk.drop_filter = plain_credit_filter(random.Random(2), 1.0)
    h0, h1 = net.host("h0"), net.host("h1")
    h0.send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), size=48 * 120),
    )
    net.run(1_000_000)
    assert h1.cells_received < 120  # stuck at roughly one window
    # And no cell was *lost* -- they are stranded upstream, not dropped.
    assert net.total_cells_dropped() == 0
