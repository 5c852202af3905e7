#!/usr/bin/env python3
"""Two generations, one failure: AN1 flushes, AN2 shrugs.

Section 2 of the paper: "In AN1, all switches must collaborate in a
reconfiguration, and all packets in transit are dropped when a
reconfiguration begins...  Fortunately, it should often be possible to
restrict participation to switches 'near' the failing component, and to
drop cells only when the path of their virtual circuit goes through a
failed link."

This demo runs the same scenario on both networks: two senders stream to
one receiver while a link *they never use* fails.  Watch AN1 lose its
standing queues to the reconfiguration flush, while AN2's credit-metered
per-VC buffers deliver everything.

Run:  python examples/an1_vs_an2.py
"""

from repro._types import host_id, switch_id
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.an1 import An1Config, An1Network
from repro.switch.switch import SwitchConfig

N_PACKETS = 30


def build_topology():
    """h0,h2 -> s0 - s1 - s2 <- h1, with a bystander spur s1-s3."""
    topo = Topology.line(3)
    topo.add_switch(3)
    topo.connect("s1", "s3")
    topo.add_host(0)
    topo.add_host(1)
    topo.add_host(2)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h2", "s0", port_a=0)
    topo.connect("h1", "s2", port_a=0)
    return topo


def fail_spur(links) -> None:
    for edge, link in links.items():
        (na, _), (nb, _) = edge
        if {na, nb} == {switch_id(1), switch_id(3)}:
            link.fail()
            return


def run_an1() -> None:
    print("--- AN1 (FIFO packet switches, drop-on-reconfiguration) ---")
    net = An1Network(
        build_topology(),
        seed=1,
        config=An1Config(
            ping_interval_us=500.0, ack_timeout_us=200.0, miss_threshold=2,
            skeptic_base_wait_us=2_000.0, boot_reconfig_delay_us=1_500.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    print(f"[{net.sim.now/1000:7.2f} ms] converged")
    for sender in (host_id(0), host_id(2)):
        for _ in range(N_PACKETS // 2):
            net.hosts[sender].send_packet(
                Packet(source=sender, destination=host_id(1), size=1500)
            )
    net.run(1_000.0)
    print(f"[{net.sim.now/1000:7.2f} ms] {net.buffered_packets()} packets "
          f"queued in switch FIFOs; failing the bystander link s1-s3")
    fail_spur(net.links)
    net.run(1_000_000)
    delivered = len(net.hosts[host_id(1)].delivered)
    print(f"[{net.sim.now/1000:7.2f} ms] delivered {delivered}/{N_PACKETS}; "
          f"{net.total_dropped_on_reconfig()} packets flushed by the "
          f"reconfiguration\n")


def run_an2() -> None:
    print("--- AN2 (per-VC buffers, credits, local reroute) ---")
    net = Network(
        build_topology(),
        seed=2,
        switch_config=SwitchConfig(
            frame_slots=32, enable_local_reroute=True,
            ping_interval_us=500.0, ack_timeout_us=200.0, miss_threshold=2,
            skeptic_base_wait_us=2_000.0, boot_reconfig_delay_us=1_500.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    print(f"[{net.now/1000:7.2f} ms] converged")
    circuits = {
        0: net.setup_circuit("h0", "h1"),
        2: net.setup_circuit("h2", "h1"),
    }
    for sender, circuit in circuits.items():
        for _ in range(N_PACKETS // 2):
            net.host(f"h{sender}").send_packet(
                circuit.vc,
                Packet(source=host_id(sender), destination=host_id(1),
                       size=1500),
            )
    net.run(1_000.0)
    print(f"[{net.now/1000:7.2f} ms] cells in flight; failing the "
          f"bystander link s1-s3")
    net.fail_link("s1", "s3")
    net.run(1_000_000)
    h1 = net.host("h1")
    print(f"[{net.now/1000:7.2f} ms] delivered {len(h1.delivered)}/"
          f"{N_PACKETS}; reassembly errors: {h1.reassembly_errors}; "
          f"cells dropped: {net.total_cells_dropped()}")


if __name__ == "__main__":
    run_an1()
    run_an2()
