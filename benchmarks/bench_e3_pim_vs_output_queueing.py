"""E3 -- PIM with 3 iterations vs output queueing with k=16.

Paper (section 3): "Simulation studies show that, for a 16x16 switch and
a variety of cell arrival patterns, random-access input buffers plus
parallel iterative matching yield throughput and latency nearly as good
as that of output queueing with k = 16 and unbounded buffer capacity.
Thus its performance is close to the maximum attainable in the absence
of advance knowledge of traffic demands."
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import AN2_PIM_ITERATIONS
from repro.core.matching.bitmask import BitmaskPim
from repro.switch.fabric import OutputQueueFabric, VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform, BurstyOnOff, Hotspot

N = 16
SLOTS = 6_000
WARMUP = 1_000


def measure(fabric, traffic):
    metrics = run_fabric(fabric, traffic, SLOTS, warmup_slots=WARMUP)
    latency = metrics.latency
    return (
        metrics.utilization(N),
        latency.mean if latency.count else 0.0,
    )


def run_experiment():
    patterns = {
        "uniform 0.8": lambda s: BernoulliUniform(N, 0.8, random.Random(s)),
        "uniform 0.95": lambda s: BernoulliUniform(N, 0.95, random.Random(s)),
        "bursty 0.7": lambda s: BurstyOnOff(N, 0.7, 16.0, random.Random(s)),
        "hotspot 0.6": lambda s: Hotspot(
            N, 0.6, hot_output=0, hot_fraction=0.25, rng=random.Random(s)
        ),
    }
    rows = {}
    for name, factory in patterns.items():
        pim = VoqFabric(
            N, BitmaskPim(N, AN2_PIM_ITERATIONS, random.Random(9))
        )
        pim_tp, pim_lat = measure(pim, factory(100))
        outq = OutputQueueFabric(N)  # k = 16, unbounded
        outq_tp, outq_lat = measure(outq, factory(100))
        rows[name] = (pim_tp, pim_lat, outq_tp, outq_lat)
    return rows


def test_e3_pim_vs_output_queueing(report_sink):
    rows = run_experiment()

    report = ExperimentReport(
        "E3", "PIM (3 iterations) vs output queueing (k=16, unbounded)"
    )
    table = Table(
        [
            "pattern",
            "PIM tput",
            "PIM latency",
            "OutQ tput",
            "OutQ latency",
        ]
    )
    for name, (pim_tp, pim_lat, outq_tp, outq_lat) in rows.items():
        table.add_row(name, pim_tp, pim_lat, outq_tp, outq_lat)
    report.add_table(table)

    throughput_close = all(
        outq_tp - pim_tp <= 0.03 for pim_tp, _, outq_tp, _ in rows.values()
    )
    report.check(
        "throughput within 3% of output queueing",
        "nearly as good, all patterns",
        "yes" if throughput_close else "no",
        holds=throughput_close,
    )
    # Latency "nearly as good": same order of magnitude away from
    # saturation; compare the sub-saturation patterns.
    calm = ["uniform 0.8", "bursty 0.7", "hotspot 0.6"]
    latency_ratio = max(
        (rows[name][1] + 1.0) / (rows[name][3] + 1.0) for name in calm
    )
    report.check(
        "latency ratio below saturation",
        "small constant factor",
        f"max x{latency_ratio:.2f}",
        holds=latency_ratio < 5.0,
    )
    report_sink(report)
    assert report.all_hold
