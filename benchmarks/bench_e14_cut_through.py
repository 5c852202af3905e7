"""E14 -- Cut-through latency and best-effort delay under load.

Paper (sections 1-2, 4):

- "In the absence of contention, the first bit of a packet leaves the
  switch 2 microseconds after it arrives";
- "a best-effort cell on a lightly loaded network should experience only
  a 2 microsecond delay at each switch.  In a heavily loaded network,
  however, queueing delays could make best-effort cell latency
  arbitrarily large."

In the event-driven switch the constant hardware delay shows up as the
per-switch transit floor; in the slotted fabric the light-load delay is
sub-slot while saturation makes it grow without bound (we show an order
of magnitude over three load steps).
"""

import random

from repro._types import host_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.matching.bitmask import BitmaskPim
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.fabric import VoqFabric, run_fabric
from repro.switch.switch import SwitchConfig
from repro.traffic.arrivals import BernoulliUniform

N = 16


def single_cell_transit():
    """One cell, one switch, nothing else: the per-switch transit time."""
    topo = Topology.line(1)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000, length_km=0.0)
    topo.connect("h1", "s0", port_a=0, bps=622_000_000, length_km=0.0)
    net = Network(
        topo,
        seed=71,
        switch_config=SwitchConfig(
            frame_slots=32,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    net.host("h0").send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), size=40),
    )
    net.run_until(
        lambda: net.host("h1").delivered, timeout_us=50_000,
        check_interval_us=5.0,
    )
    packet = net.host("h1").delivered[0]
    # Subtract the two link serializations (0 km, so no propagation):
    link_time = 2 * net.link_between("h0", "s0").cell_time_us
    return packet.latency - link_time


def load_sweep():
    rows = []
    for load in (0.1, 0.5, 0.9, 0.99):
        fabric = VoqFabric(N, BitmaskPim(N, 3, random.Random(3)))
        metrics = run_fabric(
            fabric,
            BernoulliUniform(N, load, random.Random(4)),
            12_000,
            warmup_slots=2_000,
        )
        rows.append(
            (load, metrics.latency.mean, metrics.latency.percentile(99))
        )
    return rows


def run_experiment():
    return single_cell_transit(), load_sweep()


def test_e14_cut_through(benchmark, report_sink):
    transit_us, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ExperimentReport(
        "E14", "cut-through transit and best-effort delay vs load"
    )
    table = Table(["offered load", "mean wait (slots)", "p99 wait (slots)"])
    for load, mean_wait, p99 in rows:
        table.add_row(load, mean_wait, p99)
    report.add_table(table)

    report.check(
        "uncontended switch transit",
        "~2 us (one cut-through)",
        f"{transit_us:.2f} us",
        holds=transit_us < 4.0,
    )
    report.check(
        "light-load fabric wait",
        "well under a microsecond of queueing (sub-slot)",
        f"{rows[0][1]:.3f} slots at load 0.1",
        holds=rows[0][1] < 1.0,
    )
    growth = rows[-1][1] / max(rows[0][1], 1e-9)
    report.check(
        "heavy-load queueing grows without bound",
        "orders of magnitude over the sweep",
        f"x{growth:.0f} from load 0.1 to 0.99",
        holds=growth > 100,
    )
    report_sink(report)
    assert report.all_hold
