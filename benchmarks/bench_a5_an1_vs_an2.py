"""Ablation A5 -- AN1 vs AN2 service disruption during reconfiguration.

Paper (section 2): "In AN1, all switches must collaborate in a
reconfiguration, and all packets in transit are dropped when a
reconfiguration begins.  This is acceptable in small networks, but is
unattractive for networks containing thousands of switches.
Fortunately, it should often be possible to restrict participation to
switches 'near' the failing component, and to drop cells only when the
path of their virtual circuit goes through a failed link."

We run the same scenario on both generations: steady traffic between two
hosts whose path does NOT touch the failed link, then fail a bystander
link mid-stream.

- AN1: the reconfiguration flushes every FIFO in the network -- the
  bystander flow loses packets;
- AN2 (per-VC buffers + credits + local reroute): the bystander flow is
  untouched -- zero loss.
"""

from repro._types import host_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.an1 import An1Config, An1Network
from repro.switch.switch import SwitchConfig

N_PACKETS = 30
PACKET_BYTES = 1500


def contended_line():
    """h0,h2 -> s0 - s1 - s2 <- h1,h3 with a spur link s1-s3 to fail."""
    topo = Topology.line(3)
    topo.add_switch(3)
    topo.connect("s1", "s3")  # the bystander link we will fail
    topo.add_host(0)
    topo.add_host(1)
    topo.add_host(2)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h2", "s0", port_a=0)
    topo.connect("h1", "s2", port_a=0)
    return topo


def an1_run():
    topo = contended_line()
    net = An1Network(
        topo,
        seed=111,
        config=An1Config(
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
            skeptic_base_wait_us=2_000.0,
            boot_reconfig_delay_us=1_500.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    for sender in (host_id(0), host_id(2)):
        for _ in range(N_PACKETS // 2):
            net.hosts[sender].send_packet(
                Packet(source=sender, destination=host_id(1), size=PACKET_BYTES)
            )
    # Fail the bystander spur while queues are standing.
    net.run(1_000.0)
    net.fail_link("s1", "s3")
    net.run(1_000_000)
    delivered = len(net.hosts[host_id(1)].delivered)
    dropped = net.total_dropped_on_reconfig()
    return delivered, dropped


def an2_run():
    topo = contended_line()
    net = Network(
        topo,
        seed=112,
        switch_config=SwitchConfig(
            frame_slots=32,
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
            skeptic_base_wait_us=2_000.0,
            boot_reconfig_delay_us=1_500.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuits = {
        host_id(0): net.setup_circuit("h0", "h1"),
        host_id(2): net.setup_circuit("h2", "h1"),
    }
    for sender, circuit in circuits.items():
        for _ in range(N_PACKETS // 2):
            net.host(str(sender)).send_packet(
                circuit.vc,
                Packet(source=sender, destination=host_id(1), size=PACKET_BYTES),
            )
    net.run(1_000.0)
    net.fail_link("s1", "s3")
    net.run(1_000_000)
    delivered = len(net.host("h1").delivered)
    reassembly_errors = net.host("h1").reassembly_errors
    return delivered, reassembly_errors


def run_experiment():
    return an1_run(), an2_run()


def test_a5_an1_vs_an2_disruption(report_sink):
    (an1_delivered, an1_dropped), (an2_delivered, an2_errors) = (
        run_experiment()
    )

    report = ExperimentReport(
        "A5", "bystander-link failure: AN1 flushes, AN2 does not"
    )
    table = Table(
        ["generation", "packets delivered", "packets lost to reconfig"]
    )
    table.add_row("AN1 (FIFO, drop on reconfig)", an1_delivered, an1_dropped)
    table.add_row(
        "AN2 (per-VC buffers, credits)", an2_delivered,
        N_PACKETS - an2_delivered,
    )
    report.add_table(table)

    report.check(
        "AN1 drops in-transit packets",
        "reconfiguration flushes FIFOs network-wide",
        f"{an1_dropped} packets flushed, {an1_delivered}/{N_PACKETS} delivered",
        holds=an1_dropped > 0 and an1_delivered < N_PACKETS,
    )
    report.check(
        "AN2 bystander flow unaffected",
        "drop cells only on circuits crossing the failed link",
        f"{an2_delivered}/{N_PACKETS} delivered, "
        f"{an2_errors} reassembly errors",
        holds=an2_delivered == N_PACKETS and an2_errors == 0,
    )
    report_sink(report)
    assert report.all_hold
