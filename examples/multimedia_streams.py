#!/usr/bin/env python3
"""Multi-media over AN2: guaranteed streams beside best-effort bulk data.

The paper's motivating split (section 1): guaranteed (CBR) streams get
reserved bandwidth with bounded delay and jitter -- "well suited to
transmitting multi-media data" -- while file transfers ride best-effort.
This example reserves two "video" streams through bandwidth central,
floods the same trunks with a bulk transfer, and prints the measured
latency/jitter of the guaranteed cells against the paper's p*(2f+l)
bound.

Run:  python examples/multimedia_streams.py
"""

from repro.constants import FAST_CELL_TIME_US
from repro.core.guaranteed.latency import guaranteed_latency_bound_us
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig
from repro.traffic.cbr import interarrival_jitter, latency_jitter

FRAME_SLOTS = 64


def main() -> None:
    topo = Topology.line(4)
    for h in range(4):
        topo.add_host(h)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s3", port_a=0, bps=622_000_000)
    topo.connect("h2", "s0", port_a=0, bps=622_000_000)
    topo.connect("h3", "s3", port_a=0, bps=622_000_000)

    net = Network(
        topo,
        seed=3,
        switch_config=SwitchConfig(frame_slots=FRAME_SLOTS),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    print(f"network converged at {net.now/1000:.2f} ms")

    central = net.bandwidth_central()
    # Two "video" streams with different rates (cells per 64-slot frame).
    video_hd, res_hd = net.reserve_bandwidth("h0", "h1", 12, central=central)
    video_sd, res_sd = net.reserve_bandwidth("h0", "h1", 6, central=central)
    print(f"reserved: HD {video_hd.cells_per_frame} cells/frame, "
          f"SD {video_sd.cells_per_frame} cells/frame "
          f"({central.total_reserved()} of {FRAME_SLOTS} slots on the trunk)")

    net.run(2_000)

    # Best-effort bulk transfer sharing every trunk link.
    bulk = net.setup_circuit("h2", "h3")
    for _ in range(40):
        net.host("h2").send_packet(
            bulk.vc,
            Packet(source=bulk.source, destination=bulk.destination,
                   size=48 * 30),
        )

    # Stream 200 cells on each video circuit.
    net.host("h0").send_raw_cells(video_hd.vc, 200)
    net.host("h0").send_raw_cells(video_sd.vc, 200)
    net.run(1_500_000)

    h1, h3 = net.host("h1"), net.host("h3")
    frame_time = FRAME_SLOTS * FAST_CELL_TIME_US
    print()
    print(f"frame time: {frame_time:.1f} us; "
          f"per-switch jitter bound 2f = {2*frame_time:.1f} us")
    for name, circuit, reservation in (
        ("HD video", video_hd, res_hd),
        ("SD video", video_sd, res_sd),
    ):
        latencies = h1.cell_latency[circuit.vc]
        arrivals = h1.cell_arrivals[circuit.vc]
        bound = guaranteed_latency_bound_us(
            reservation.path_length, frame_time, 1.0
        )
        print(f"{name}: {latencies.count} cells"
              f"  mean {latencies.mean:6.1f} us"
              f"  max {latencies.maximum:6.1f} us"
              f"  (bound p*(2f+l) = {bound:.1f} us)"
              f"  jitter {latency_jitter(latencies.samples()):6.1f} us"
              f"  interarrival-jitter {interarrival_jitter(arrivals):6.1f} us")
    print(f"bulk transfer: {len(h3.delivered)}/40 packets, "
          f"mean latency {h3.packet_latency.mean/1000:.2f} ms "
          f"(best-effort: no bound, rides leftover slots)")


if __name__ == "__main__":
    main()
