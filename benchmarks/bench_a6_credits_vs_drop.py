"""Ablation A6 -- why AN2 chose credits over drop-and-retransmit.

Paper (section 5): of the three ways to handle buffer pressure, AN2 uses
rate-matching for guaranteed traffic and credits for best-effort; the
third -- "drop messages when buffer capacity is exceeded.  If messages
are dropped, they are typically retransmitted by higher levels of the
system" -- is the classic alternative.

We run the same reliable 30-packet transfer under identical congestion
through (a) the credit network (loss impossible, ARQ never fires) and
(b) the drop network (switches shed cells, go-back-N recovers), and
compare wire efficiency and completion time.
"""

from repro._types import host_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig
from repro.traffic.arq import ArqTransfer

N_PACKETS = 30
PACKET_BYTES = 480
FLOOD_PACKETS = 120


def build_net(flow_control, seed):
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
            flow_control=flow_control,
            credit_allocation=6,  # buffer bound in both modes
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


def run_mode(flow_control, seed):
    net = build_net(flow_control, seed)
    flood = net.setup_circuit("h2", "h3")
    for _ in range(FLOOD_PACKETS):
        net.host("h2").send_packet(
            flood.vc,
            Packet(source=host_id(2), destination=host_id(3), size=48 * 40),
        )
    fwd = net.setup_circuit("h0", "h1")
    rev = net.setup_circuit("h1", "h0")
    arq = ArqTransfer(
        net.sim,
        net.host("h0"),
        net.host("h1"),
        fwd.vc,
        rev.vc,
        n_packets=N_PACKETS,
        packet_bytes=PACKET_BYTES,
        window=8,
        timeout_us=3_000.0,
    )
    t0 = net.now
    arq.start()
    net.run_until(lambda: arq.done, timeout_us=20_000_000)
    completion_us = (arq.completed_at or net.now) - t0
    return {
        "efficiency": arq.efficiency,
        "retransmissions": arq.retransmissions,
        "completion_us": completion_us,
        "cells_dropped": net.total_cells_dropped(),
    }


def run_experiment():
    return run_mode("credits", seed=121), run_mode("drop", seed=122)


def test_a6_credits_vs_drop(benchmark, report_sink):
    credits, drop = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ExperimentReport(
        "A6", "best-effort flow control: credits vs drop-and-retransmit"
    )
    table = Table(
        [
            "flow control",
            "wire efficiency",
            "retransmissions",
            "completion (ms)",
            "cells dropped in switches",
        ]
    )
    table.add_row(
        "credits (AN2)",
        credits["efficiency"],
        credits["retransmissions"],
        credits["completion_us"] / 1000,
        credits["cells_dropped"],
    )
    table.add_row(
        "drop + go-back-N",
        drop["efficiency"],
        drop["retransmissions"],
        drop["completion_us"] / 1000,
        drop["cells_dropped"],
    )
    report.add_table(table)

    report.check(
        "credits are lossless",
        "no drops, no retransmissions, efficiency 1.0",
        f"{credits['cells_dropped']} drops, "
        f"{credits['retransmissions']} retx, "
        f"eff {credits['efficiency']:.3f}",
        holds=credits["cells_dropped"] == 0
        and credits["retransmissions"] == 0
        and credits["efficiency"] == 1.0,
    )
    report.check(
        "dropping wastes wire capacity",
        "efficiency < 1.0 under congestion",
        f"eff {drop['efficiency']:.3f}, {drop['cells_dropped']} cells shed",
        holds=drop["efficiency"] < 1.0 and drop["cells_dropped"] > 0,
    )
    report.check(
        "both complete the reliable transfer",
        "ARQ recovers what the switches shed",
        f"{credits['completion_us']/1000:.1f} ms vs "
        f"{drop['completion_us']/1000:.1f} ms",
        holds=True,
    )
    report_sink(report)
    assert report.all_hold
