"""The paper's favorite demo, as a test.

Section 1: "A favorite AN1 demo is pulling the plug on an arbitrary
switch in SRC's main LAN.  The network reconfigures in less than 200
milliseconds, and users see no service interruption."
"""

import random

import pytest

from repro._types import host_id, switch_id
from repro.constants import RECONFIGURATION_BUDGET_US
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config


def src_style_net(seed=11):
    """A redundant grid core with dual-homed hosts on opposite corners."""
    topo = Topology.grid(3, 3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s3", port_a=1, bps=622_000_000)
    topo.connect("h1", "s8", port_a=0, bps=622_000_000)
    topo.connect("h1", "s5", port_a=1, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    return net


def test_reconfiguration_under_budget_after_plug_pull():
    net = src_style_net()
    t0 = net.now
    net.crash_switch("s4")  # an arbitrary interior switch
    net.run_until(net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US)
    assert net.now - t0 < RECONFIGURATION_BUDGET_US
    assert switch_id(4) not in net.main_component_switches()


def test_service_continues_through_plug_pull():
    """Traffic on a circuit that avoids the victim keeps flowing; a
    circuit through the victim is locally rerouted and recovers."""
    net = src_style_net()
    circuit = net.setup_circuit("h0", "h1")
    h0, h1 = net.host("h0"), net.host("h1")

    # Steady traffic before the failure.
    for _ in range(5):
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
    net.run(100_000)
    delivered_before = len(h1.delivered)
    assert delivered_before == 5

    # Pull the plug on a random *non-endpoint* switch.
    victim = "s4"
    net.crash_switch(victim)
    net.run_until(net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US)

    # Service resumes (rerouted or unaffected).
    for _ in range(5):
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
    net.run(200_000)
    assert len(h1.delivered) == 10
    assert h1.reassembly_errors == 0


def test_plug_pull_of_every_interior_switch():
    """Sweep the victim across all interior switches: the survivors must
    always re-learn reality within budget."""
    for victim in ("s1", "s3", "s4", "s5", "s7"):
        net = src_style_net(seed=13)
        t0 = net.now
        net.crash_switch(victim)
        net.run_until(
            net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US
        )
        assert net.now - t0 < RECONFIGURATION_BUDGET_US


def test_switch_revival_rejoins_network():
    net = src_style_net()
    net.crash_switch("s4")
    net.run_until(net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US)
    net.restore_switch("s4")
    net.run_until(
        lambda: net.fully_reconfigured()
        and switch_id(4) in net.main_component_switches(),
        timeout_us=2_000_000,
    )
    assert net.converged_view() == net.expected_view()
