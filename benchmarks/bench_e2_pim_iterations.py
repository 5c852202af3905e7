"""E2 -- PIM iteration counts: log2(N) + 4/3, and 98% maximal within 4.

Paper (section 3): "It can be proved, however, that the average time to
find a maximal match is bounded by log2 N + 4/3, or 5.32 for the AN2
switch.  This result is independent of the arrival patterns of cells...
In fact, simulations show that a maximal match is found within 4
iterations more than 98% of the time."

We measure iterations-to-maximal across arrival patterns and switch
sizes, plus an iSLIP ablation of the randomized choice rule.
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import pim_iteration_bound
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.switch.fabric import VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform, BurstyOnOff, Hotspot

SLOTS = 4_000
WARMUP = 500


def iteration_stats(n_ports, traffic_factory, seed, matcher_factory=None):
    if matcher_factory is None:
        matcher_factory = lambda: BitmaskPim(
            n_ports, n_ports, random.Random(seed)
        )
    fabric = VoqFabric(n_ports, matcher_factory())
    metrics = run_fabric(
        fabric, traffic_factory(seed + 77), SLOTS, warmup_slots=WARMUP
    )
    iterations = metrics.iterations_to_maximal
    within4 = sum(
        count
        for bucket, count in metrics.maximal_within.items()
        if bucket <= 4
    )
    return iterations.mean, within4 / iterations.count, iterations.maximum


def run_experiment():
    patterns = {
        "uniform load 1.0": lambda s: BernoulliUniform(16, 1.0, random.Random(s)),
        "uniform load 0.6": lambda s: BernoulliUniform(16, 0.6, random.Random(s)),
        "bursty load 0.9": lambda s: BurstyOnOff(16, 0.9, 16.0, random.Random(s)),
        "hotspot load 0.9": lambda s: Hotspot(
            16, 0.9, hot_output=0, hot_fraction=0.3, rng=random.Random(s)
        ),
    }
    pattern_rows = {
        name: iteration_stats(16, factory, seed=3)
        for name, factory in patterns.items()
    }
    size_rows = {
        n: iteration_stats(
            n, lambda s, n=n: BernoulliUniform(n, 1.0, random.Random(s)), seed=4
        )
        for n in (4, 8, 16, 32)
    }
    islip_mean, islip_within4, _ = iteration_stats(
        16,
        lambda s: BernoulliUniform(16, 1.0, random.Random(s)),
        seed=5,
        matcher_factory=lambda: BitmaskIslip(16, iterations=16),
    )
    return pattern_rows, size_rows, (islip_mean, islip_within4)


def test_e2_pim_iterations(report_sink):
    pattern_rows, size_rows, islip = run_experiment()

    report = ExperimentReport("E2", "PIM iterations to a maximal match")
    table = Table(
        ["arrival pattern (16x16)", "mean iters", "maximal within 4", "max"]
    )
    for name, (mean_iters, within4, max_iters) in pattern_rows.items():
        table.add_row(name, mean_iters, f"{100*within4:.1f}%", max_iters)
    report.add_table(table)

    sizes = Table(["switch size N", "mean iters", "bound log2(N)+4/3"])
    for n, (mean_iters, _, _) in size_rows.items():
        sizes.add_row(n, mean_iters, pim_iteration_bound(n))
    report.add_table(sizes)

    worst_mean = max(mean for mean, _, _ in pattern_rows.values())
    report.check(
        "mean iterations (16x16, any pattern)",
        "<= 5.32",
        f"{worst_mean:.2f}",
        holds=worst_mean <= pim_iteration_bound(16),
    )
    worst_within4 = min(within4 for _, within4, _ in pattern_rows.values())
    report.check(
        "maximal within 4 iterations",
        "> 98%",
        f"{100*worst_within4:.1f}%",
        holds=worst_within4 > 0.98,
    )
    bound_ok = all(
        size_rows[n][0] <= pim_iteration_bound(n) for n in size_rows
    )
    report.check(
        "bound holds for N in {4,8,16,32}",
        "mean <= log2(N)+4/3",
        "yes" if bound_ok else "no",
        holds=bound_ok,
    )
    report.check(
        "iSLIP ablation (round-robin choices)",
        "comparable iterations",
        f"mean {islip[0]:.2f}, within-4 {100*islip[1]:.1f}%",
        holds=islip[0] <= pim_iteration_bound(16) + 1,
    )
    report_sink(report)
    assert report.all_hold
