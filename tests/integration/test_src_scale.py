"""SRC-scale smoke test.

Section 1: "AN1 has been in operation since early 1990, supporting over
100 workstations at SRC."  This test boots an installation of that
scale -- 30 switches, 100 dual-homed hosts -- converges it, runs traffic
between distant hosts, pulls the plug on a switch, and verifies the
200 ms budget and zero best-effort loss end to end.
"""

import random

import pytest

from repro._types import host_id
from repro.constants import RECONFIGURATION_BUDGET_US
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config


@pytest.fixture(scope="module")
def src_net():
    topo = Topology.src_lan(n_switches=30, n_hosts=100, rng=random.Random(7))
    net = Network(
        topo,
        seed=7,
        switch_config=fast_switch_config(enable_local_reroute=True),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US)
    return net


def test_boot_converges_within_budget(src_net):
    assert src_net.now < RECONFIGURATION_BUDGET_US
    view = src_net.converged_view()
    assert view == src_net.expected_view()
    assert len(view.switches()) == 30
    assert len(view.host_ports()) == 100


def test_many_circuits_deliver(src_net):
    net = src_net
    rng = random.Random(3)
    pairs = []
    for _ in range(10):
        a, b = rng.sample(range(100), 2)
        circuit = net.setup_circuit(f"h{a}", f"h{b}", timeout_us=200_000)
        pairs.append((a, b, circuit))
    for a, b, circuit in pairs:
        net.host(f"h{a}").send_packet(
            circuit.vc,
            Packet(source=host_id(a), destination=host_id(b), size=960),
        )
    net.run(400_000)
    for a, b, circuit in pairs:
        delivered = [
            p for p in net.host(f"h{b}").delivered if p.source == host_id(a)
        ]
        assert delivered, f"h{a}->h{b} lost its packet"
    assert net.total_cells_dropped() == 0


def test_plug_pull_at_scale(src_net):
    net = src_net
    t0 = net.now
    victim = net.main_component_switches()[len(net.switches) // 2]
    net.crash_switch(victim)
    net.run_until(
        net.fully_reconfigured, timeout_us=RECONFIGURATION_BUDGET_US
    )
    assert net.now - t0 < RECONFIGURATION_BUDGET_US
    assert victim not in net.main_component_switches()
