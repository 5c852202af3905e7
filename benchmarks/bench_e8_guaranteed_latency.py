"""E8 -- Guaranteed traffic: the p*(2f+l) bound, jitter, and buffers.

Paper (section 4):

- "the time for a guaranteed cell to reach its destination is at most
  p x (2f + l)" for synchronous *and* asynchronous networks;
- "the latency and jitter of a guaranteed cell is less than 1
  millisecond per switch" (sub-half-millisecond frames);
- buffers: 2 frames per line card in a synchronized network, about 4
  frames for a typical asynchronous LAN.

We run CBR streams over switch chains of increasing length, with zero
clock drift (synchronous) and with +/-200 ppm drift (asynchronous), and
compare measured worst-case latency, jitter, and peak guaranteed-buffer
occupancy against the bounds.
"""

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import FAST_CELL_TIME_US
from repro.core.guaranteed.latency import (
    buffer_requirement_cells,
    guaranteed_latency_bound_us,
    per_switch_jitter_bound_us,
)
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig

FRAME_SLOTS = 32
CELLS_PER_FRAME = 8
STREAM_CELLS = 150


def run_chain(path_switches: int, drift_ppm: float, seed: int):
    topo = Topology.line(path_switches)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", f"s{path_switches-1}", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=FRAME_SLOTS,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
        drift_ppm=drift_ppm,
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit, reservation = net.reserve_bandwidth("h0", "h1", CELLS_PER_FRAME)
    net.run(2_000)
    net.host("h0").send_raw_cells(circuit.vc, STREAM_CELLS)

    peak_buffers = 0

    def sample_buffers():
        nonlocal peak_buffers
        occupancy = max(
            sum(card.guaranteed_queues.occupancy for card in s.cards)
            for s in net.switches.values()
        )
        peak_buffers = max(peak_buffers, occupancy)
        if net.host("h1").cells_received < STREAM_CELLS:
            net.sim.schedule(50.0, sample_buffers)

    net.sim.schedule(0.0, sample_buffers)
    net.run_until(
        lambda: net.host("h1").cells_received >= STREAM_CELLS,
        timeout_us=3_000_000,
    )
    latency = net.host("h1").cell_latency[circuit.vc]
    jitter = latency.maximum - latency.minimum
    return (
        reservation.path_length,
        latency.maximum,
        jitter,
        peak_buffers,
    )


def run_experiment():
    frame_time = FRAME_SLOTS * FAST_CELL_TIME_US
    rows = []
    for drift_label, drift in (("sync (0 ppm)", 0.0), ("async (200 ppm)", 200.0)):
        for chain in (2, 4, 6):
            path, max_latency, jitter, peak = run_chain(
                chain, drift, seed=chain * 10 + int(drift)
            )
            bound = guaranteed_latency_bound_us(path, frame_time, 1.0)
            rows.append(
                (drift_label, path, max_latency, bound, jitter, peak)
            )
    return rows, frame_time


def test_e8_guaranteed_latency(benchmark, report_sink):
    rows, frame_time = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ExperimentReport(
        "E8", "guaranteed latency/jitter/buffers vs section-4 bounds"
    )
    table = Table(
        [
            "clocking",
            "path p",
            "max latency (us)",
            "bound p*(2f+l)",
            "jitter (us)",
            "peak guaranteed buffer (cells)",
        ]
    )
    for drift_label, path, max_latency, bound, jitter, peak in rows:
        table.add_row(drift_label, path, max_latency, bound, jitter, peak)
    report.add_table(table)

    within_bound = all(row[2] <= row[3] for row in rows)
    report.check(
        "latency bound p*(2f+l)",
        "holds, sync and async",
        "yes" if within_bound else "VIOLATED",
        holds=within_bound,
    )
    jitter_bound = per_switch_jitter_bound_us(frame_time)
    jitter_ok = all(row[4] <= row[1] * jitter_bound for row in rows)
    report.check(
        "jitter < 2f per switch",
        f"<= p x {jitter_bound:.0f} us",
        "yes" if jitter_ok else "VIOLATED",
        holds=jitter_ok,
    )
    sync_needed = buffer_requirement_cells(FRAME_SLOTS, synchronous=True)
    async_needed = buffer_requirement_cells(FRAME_SLOTS, synchronous=False)
    peak_sync = max(row[5] for row in rows if row[0].startswith("sync"))
    peak_async = max(row[5] for row in rows if row[0].startswith("async"))
    report.check(
        "buffers, synchronous",
        f"<= 2 frames ({sync_needed} cells)",
        f"peak {peak_sync}",
        holds=peak_sync <= sync_needed,
    )
    report.check(
        "buffers, asynchronous",
        f"<= 4 frames ({async_needed} cells)",
        f"peak {peak_async}",
        holds=peak_async <= async_needed,
    )
    report_sink(report)
    assert report.all_hold
