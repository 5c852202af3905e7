"""E1 -- Head-of-line blocking: FIFO's 58% ceiling vs random-access buffers.

Paper (section 3): "Karol et al. have shown that head-of-line blocking
limits switch throughput to 58% of each link, when the destinations of
incoming cells are uniformly distributed among all outputs", and AN2's
random-access input buffers plus PIM avoid it.

This bench sweeps offered load on a saturating 16x16 switch and prints
the delivered throughput for FIFO input queueing vs PIM; the crossover
signature is FIFO saturating near 0.58-0.60 while PIM tracks the load
until ~0.97.
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import AN2_PIM_ITERATIONS
from repro.core.matching.bitmask import BitmaskPim
from repro.core.matching.fifo import FifoScheduler
from repro.switch.fabric import FifoFabric, VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform

N = 16
SLOTS = 6_000
WARMUP = 1_000
LOADS = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def throughput(fabric_factory, load, seed):
    fabric = fabric_factory(seed)
    traffic = BernoulliUniform(N, load, random.Random(seed + 1000))
    metrics = run_fabric(fabric, traffic, SLOTS, warmup_slots=WARMUP)
    return metrics.utilization(N)


def run_sweep():
    fifo_factory = lambda seed: FifoFabric(N, FifoScheduler(N, random.Random(seed)))
    pim_factory = lambda seed: VoqFabric(
        N, BitmaskPim(N, AN2_PIM_ITERATIONS, random.Random(seed))
    )
    rows = []
    for load in LOADS:
        rows.append(
            (
                load,
                throughput(fifo_factory, load, seed=1),
                throughput(pim_factory, load, seed=2),
            )
        )
    return rows


def test_e1_hol_blocking(report_sink):
    rows = run_sweep()

    report = ExperimentReport(
        "E1", "FIFO head-of-line blocking vs PIM (16x16, uniform arrivals)"
    )
    table = Table(["offered load", "FIFO throughput", "PIM-3 throughput"])
    for load, fifo_tp, pim_tp in rows:
        table.add_row(load, fifo_tp, pim_tp)
    report.add_table(table)

    fifo_saturated = rows[-1][1]
    pim_saturated = rows[-1][2]
    report.check(
        "FIFO saturation throughput",
        "~0.58 (0.59-0.63 at N=16)",
        f"{fifo_saturated:.3f}",
        holds=0.55 <= fifo_saturated <= 0.65,
    )
    report.check(
        "PIM-3 saturation throughput",
        "> 0.9 (near output queueing)",
        f"{pim_saturated:.3f}",
        holds=pim_saturated > 0.9,
    )
    # Below the FIFO ceiling both organisations carry the offered load.
    low_load_gap = abs(rows[0][1] - rows[0][2])
    report.check(
        "equal at low load (0.4)",
        "difference ~ 0",
        f"{low_load_gap:.3f}",
        holds=low_load_gap < 0.02,
    )
    report_sink(report)
    assert report.all_hold
