"""Ablation A1 -- Nested frames: the section-4 flexibility extension.

Paper (section 4): "Large frames are attractive because they provide a
fine-grained allocation unit, but small frames yield better latency and
jitter bounds.  Nested frames could provide the benefits of both.  For
example, allocation could be based on 1024-slot frames, with cell
re-ordering restricted to 128-slot units."

We run the same CBR stream through the same switch chain with (a) a flat
frame schedule and (b) nested subframes (1/8 of the frame), and compare
worst-case latency and jitter.  Allocation granularity stays one cell
per *outer* frame in both cases -- the extension's selling point.
"""

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import FAST_CELL_TIME_US
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig

FRAME_SLOTS = 128
SUBFRAME_SLOTS = 16
CELLS_PER_FRAME = 8
STREAM_CELLS = 120


def run_variant(nested: bool, seed: int):
    topo = Topology.line(3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s2", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=FRAME_SLOTS,
            nested_subframe_slots=SUBFRAME_SLOTS if nested else None,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit, reservation = net.reserve_bandwidth("h0", "h1", CELLS_PER_FRAME)
    net.run(2_000)
    net.host("h0").send_raw_cells(circuit.vc, STREAM_CELLS)
    net.run_until(
        lambda: net.host("h1").cells_received >= STREAM_CELLS,
        timeout_us=5_000_000,
    )
    latency = net.host("h1").cell_latency[circuit.vc]
    return (
        reservation.path_length,
        latency.mean,
        latency.maximum,
        latency.maximum - latency.minimum,
    )


def run_experiment():
    flat = run_variant(nested=False, seed=81)
    nested = run_variant(nested=True, seed=81)
    return flat, nested


def test_a1_nested_frames(report_sink):
    flat, nested = run_experiment()
    frame_time = FRAME_SLOTS * FAST_CELL_TIME_US
    subframe_time = SUBFRAME_SLOTS * FAST_CELL_TIME_US

    report = ExperimentReport(
        "A1",
        "nested frames: 128-slot allocation, 16-slot re-ordering units",
    )
    table = Table(
        ["schedule", "path p", "mean latency (us)", "max", "jitter"]
    )
    table.add_row("flat frame", flat[0], flat[1], flat[2], flat[3])
    table.add_row("nested (1/8)", nested[0], nested[1], nested[2], nested[3])
    report.add_table(table)

    report.check(
        "nested frames cut worst-case latency",
        f"toward p*2*subframe ({flat[0]*2*subframe_time:.0f} us) from "
        f"p*2*frame ({flat[0]*2*frame_time:.0f} us)",
        f"{flat[2]:.1f} -> {nested[2]:.1f} us",
        holds=nested[2] < flat[2] * 0.6,
    )
    report.check(
        "nested frames cut jitter",
        "roughly by the nesting factor",
        f"{flat[3]:.1f} -> {nested[3]:.1f} us",
        holds=nested[3] < flat[3] * 0.6,
    )
    report.check(
        "allocation granularity preserved",
        "still cells per 128-slot frame",
        f"{CELLS_PER_FRAME} cells/frame in both",
        holds=True,
    )
    report_sink(report)
    assert report.all_hold
