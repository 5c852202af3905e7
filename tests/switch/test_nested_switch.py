"""Nested-frame scheduling inside the event-driven switch."""

import pytest

from repro.core.guaranteed.nested_frames import NestedFrameSchedule
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig


def nested_net(seed=55):
    topo = Topology.line(2)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=64,
            nested_subframe_slots=8,
            boot_reconfig_delay_us=1_500.0,
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def test_switch_uses_nested_schedule():
    net = nested_net()
    for switch in net.switches.values():
        assert isinstance(switch.frame_schedule, NestedFrameSchedule)


def test_reservation_spreads_across_subframes():
    net = nested_net()
    circuit, _ = net.reserve_bandwidth("h0", "h1", 8)
    net.run(2_000)
    schedule = net.switch("s0").frame_schedule
    assert schedule.total_reserved() == 8
    # One cell in every 8-slot subframe.
    in_port = net.switch("s0")._vc_in_port[circuit.vc]
    entry = net.switch("s0").cards[in_port].routing_table.lookup(circuit.vc)
    gap = schedule.max_gap_slots(in_port, entry.out_port)
    assert gap <= 2 * 8


def test_nested_cbr_traffic_flows_with_low_jitter():
    net = nested_net()
    circuit, _ = net.reserve_bandwidth("h0", "h1", 8)
    net.run(2_000)
    net.host("h0").send_raw_cells(circuit.vc, 64)
    net.run_until(
        lambda: net.host("h1").cells_received >= 64, timeout_us=2_000_000
    )
    latency = net.host("h1").cell_latency[circuit.vc]
    # Jitter bounded by ~2 subframes per switch (2 switches).
    subframe_us = 8 * 0.6817
    assert latency.maximum - latency.minimum <= 2 * 2 * subframe_us + 2.0


def test_remove_reservation_nested():
    net = nested_net()
    circuit, reservation = net.reserve_bandwidth("h0", "h1", 8)
    net.run(2_000)
    for switch_id_, in_port, out_port in reservation.switch_hops:
        net.switches[switch_id_].remove_reservation(in_port, out_port, 8)
    for switch_id_, _, _ in reservation.switch_hops:
        assert net.switches[switch_id_].frame_schedule.total_reserved() == 0


def test_subframe_must_divide_frame_config():
    topo = Topology.line(2)
    from repro.sim.random import RandomStreams
    from repro._types import switch_id as sid
    from repro.switch.switch import AN2Switch
    from repro.sim.kernel import Simulator

    with pytest.raises(ValueError):
        AN2Switch(
            Simulator(),
            sid(0),
            RandomStreams(0),
            config=SwitchConfig(frame_slots=64, nested_subframe_slots=7),
            n_ports=4,
        )
