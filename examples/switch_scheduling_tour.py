#!/usr/bin/env python3
"""A tour of crossbar scheduling: FIFO vs PIM vs output queueing.

Section 3 in one script: drive the same 16x16 switch with the same
traffic under four buffer/scheduler organisations and watch head-of-line
blocking cap FIFO at ~58% while PIM with 3 iterations tracks the output-
queueing yardstick.

Run:  python examples/switch_scheduling_tour.py
"""

import random

from repro.analysis.tables import Table
from repro.constants import AN2_PIM_ITERATIONS, pim_iteration_bound
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.core.matching.fifo import FifoScheduler
from repro.switch.fabric import (
    FifoFabric,
    OutputQueueFabric,
    VoqFabric,
    run_fabric,
)
from repro.traffic.arrivals import BernoulliUniform, BurstyOnOff

N = 16
SLOTS = 20_000
WARMUP = 2_000


def build_fabrics(seed: int):
    return [
        ("FIFO input queues", FifoFabric(N, FifoScheduler(N, random.Random(seed)))),
        (
            f"PIM ({AN2_PIM_ITERATIONS} iterations)",
            VoqFabric(
                N,
                BitmaskPim(N, AN2_PIM_ITERATIONS, random.Random(seed + 1)),
            ),
        ),
        (
            "iSLIP (3 iterations)",
            VoqFabric(N, BitmaskIslip(N, iterations=3)),
        ),
        ("output queueing (k=16)", OutputQueueFabric(N)),
    ]


def main() -> None:
    for title, make_traffic in (
        (
            "uniform Bernoulli arrivals, saturated (load 1.0)",
            lambda seed: BernoulliUniform(N, 1.0, random.Random(seed)),
        ),
        (
            "bursty on/off arrivals (load 0.8, mean burst 16)",
            lambda seed: BurstyOnOff(N, 0.8, 16.0, random.Random(seed)),
        ),
    ):
        table = Table(
            ["organisation", "throughput", "mean latency (slots)", "p99"],
            title=title,
        )
        for name, fabric in build_fabrics(seed=11):
            metrics = run_fabric(
                fabric, make_traffic(99), SLOTS, warmup_slots=WARMUP
            )
            latency = metrics.latency
            table.add_row(
                name,
                metrics.utilization(N),
                latency.mean if latency.count else 0.0,
                latency.percentile(99) if latency.count else 0.0,
            )
        print(table)
        print()

    # PIM iteration statistics (the log2(N) + 4/3 story).
    fabric = VoqFabric(N, BitmaskPim(N, N, random.Random(5)))
    metrics = run_fabric(
        fabric, BernoulliUniform(N, 1.0, random.Random(6)), 5_000, warmup_slots=500
    )
    iterations = metrics.iterations_to_maximal
    within4 = sum(
        count for bucket, count in metrics.maximal_within.items() if bucket <= 4
    )
    print(
        f"PIM run-to-maximal: mean {iterations.mean:.2f} iterations "
        f"(paper bound log2(16)+4/3 = {pim_iteration_bound(N):.2f}); "
        f"maximal within 4 iterations in "
        f"{100*within4/iterations.count:.1f}% of slots (paper: >98%)"
    )


if __name__ == "__main__":
    main()
