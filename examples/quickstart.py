#!/usr/bin/env python3
"""Quickstart: build an AN2 network, let it configure itself, move data.

Builds a small SRC-style installation (redundant switch core, dual-homed
hosts), boots it, waits for the distributed reconfiguration to converge,
sets up a best-effort virtual circuit with hop-by-hop signaling, and
sends packets across it.

Run:  python examples/quickstart.py
"""

from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology


def main() -> None:
    # 1. Describe the installation: a 2x3 switch grid, two hosts.
    topo = Topology.grid(2, 3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", "s5", port_a=0)

    # 2. Instantiate and boot.  Every switch starts its link monitors and
    #    triggers the three-phase reconfiguration once neighbors answer.
    net = Network(topo, seed=42)
    net.start()
    t_converged = net.run_until_converged(timeout_us=500_000)
    print(f"topology acquired by all switches at t={t_converged/1000:.2f} ms")
    view = net.converged_view()
    print(f"  {len(view.switches())} switches, {len(view.edges)} links discovered")
    print(f"  matches physical reality: {view == net.expected_view()}")

    # 3. Set up a virtual circuit h0 -> h1.  A setup cell travels hop by
    #    hop; each line card picks the next hop from its topology view
    #    (up*/down* legal) and installs a routing-table entry.
    circuit = net.setup_circuit("h0", "h1")
    print(f"circuit vc={circuit.vc} established at t={net.now/1000:.2f} ms")

    # 4. Send packets.  The controller segments them into 53-byte cells,
    #    credit-based flow control meters every hop, and the receiving
    #    controller reassembles.
    for index in range(5):
        payload = f"packet {index} via AN2".encode()
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=circuit.source, destination=circuit.destination,
                   payload=payload),
        )
    net.run(100_000)

    h1 = net.host("h1")
    print(f"delivered {len(h1.delivered)} packets:")
    for packet in h1.delivered:
        print(f"  {packet.payload.decode():24s} latency {packet.latency:7.1f} us")
    print(f"cells dropped anywhere: {net.total_cells_dropped()}")


if __name__ == "__main__":
    main()
