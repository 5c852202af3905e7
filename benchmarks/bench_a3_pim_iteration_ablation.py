"""Ablation A3 -- why AN2 runs exactly 3 PIM iterations.

Paper (section 3): "Because of its time limit, AN2 uses just three
iterations of parallel iterative matching."  Each iteration costs wire
time inside the half-microsecond slot, so more iterations only pay off
if they buy throughput.  This ablation sweeps 1-5 iterations under
saturated uniform traffic and shows the knee at 3: the first iteration
leaves real throughput on the table, the fourth and fifth buy almost
nothing.
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.matching.bitmask import BitmaskPim
from repro.switch.fabric import VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform

N = 16
SLOTS = 6_000
WARMUP = 1_000


def run_experiment():
    rows = []
    for iterations in (1, 2, 3, 4, 5):
        fabric = VoqFabric(
            N,
            BitmaskPim(N, iterations, random.Random(7)),
        )
        metrics = run_fabric(
            fabric,
            BernoulliUniform(N, 1.0, random.Random(8)),
            SLOTS,
            warmup_slots=WARMUP,
        )
        rows.append(
            (
                iterations,
                metrics.utilization(N),
                metrics.latency.mean,
            )
        )
    return rows


def test_a3_pim_iteration_knee(benchmark, report_sink):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ExperimentReport(
        "A3", "PIM iteration count vs throughput (16x16, saturated uniform)"
    )
    table = Table(["iterations", "throughput", "mean latency (slots)"])
    for iterations, throughput, latency in rows:
        table.add_row(iterations, throughput, latency)
    report.add_table(table)

    by_iter = {r[0]: r[1] for r in rows}
    report.check(
        "1 iteration leaves throughput on the table",
        "noticeably below 3 iterations",
        f"{by_iter[1]:.3f} vs {by_iter[3]:.3f}",
        holds=by_iter[3] - by_iter[1] > 0.04,
    )
    report.check(
        "3 iterations near the plateau",
        "within 2% of 5 iterations (vs 33% gained from 1 to 3)",
        f"{by_iter[3]:.3f} vs {by_iter[5]:.3f}",
        holds=by_iter[5] - by_iter[3] < 0.02,
    )
    monotone = all(a[1] <= b[1] + 0.005 for a, b in zip(rows, rows[1:]))
    report.check(
        "throughput monotone in iterations",
        "each round can only add matches",
        "yes" if monotone else "no",
        holds=monotone,
    )
    report_sink(report)
    assert report.all_hold
