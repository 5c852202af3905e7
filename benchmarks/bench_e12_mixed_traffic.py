"""E12 -- Best-effort traffic in the gaps of the frame schedule.

Paper (section 4):

- "Best-effort cells can be scheduled (by parallel iterative matching)
  during slots not used by guaranteed traffic...  In addition,
  best-effort cells can use an allocated slot if no cell from the
  scheduled virtual circuit is present";
- the schedule-arrangement conjecture: best-effort fares better when
  reserved traffic is "packed into a small number of slots" and when
  "the unreserved slots are distributed throughout the frame rather than
  grouped at one point".

We build the same reservation demand under three packing policies, run
identical guaranteed + best-effort traffic through the slotted fabric,
and compare best-effort latency and throughput (the packing ablation the
paper calls "a matter for further study").
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.guaranteed.packing import make_policy_schedule
from repro.core.matching.bitmask import BitmaskPim
from repro.switch.fabric import VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform

N = 16
FRAME = 64
SLOTS = 10 * FRAME * 8
BE_LOAD = 0.45


def guaranteed_demand(rng):
    """~40% of each link reserved, in lumpy per-pair chunks."""
    demand = [[0] * N for _ in range(N)]
    rows, cols = [0] * N, [0] * N
    target = int(FRAME * 0.4)
    for _ in range(400):
        i, o = rng.randrange(N), rng.randrange(N)
        k = min(rng.randint(2, 8), target - rows[i], target - cols[o])
        if k > 0:
            demand[i][o] += k
            rows[i] += k
            cols[o] += k
    return demand


def run_policy(policy, demand, seed):
    schedule = make_policy_schedule(policy, N, FRAME, demand)
    frame_schedule = [schedule.slot_assignments(s) for s in range(FRAME)]
    fabric = VoqFabric(
        N,
        BitmaskPim(N, 3, random.Random(seed)),
        frame_schedule=frame_schedule,
    )
    # Guaranteed sources: keep every reserved pair's queue fed at its
    # reserved rate (cells per frame arrive spread through the frame).
    reserved_pairs = [
        (i, o, demand[i][o])
        for i in range(N)
        for o in range(N)
        if demand[i][o]
    ]
    be_traffic = BernoulliUniform(N, BE_LOAD, random.Random(seed + 1))

    def feed_guaranteed(slot):
        for i, o, cells in reserved_pairs:
            # Bernoulli thinning at rate cells/FRAME keeps the guaranteed
            # queues fed at exactly the reserved rate on average.
            if feed_rng.random() < cells / FRAME:
                fabric.offer_guaranteed(i, o, slot)

    feed_rng = random.Random(seed + 2)
    for slot in range(SLOTS):
        feed_guaranteed(slot)
        for i, o in be_traffic.arrivals(slot):
            fabric.offer(i, o, slot)
        fabric.step(slot)
    metrics = fabric.metrics
    guaranteed_delivered = sum(
        count
        for (i, o), count in metrics.delivered_per_pair.items()
        if demand[i][o] > 0
    )
    return (
        schedule.slots_used(),
        metrics.latency.mean,
        metrics.latency.percentile(99),
        metrics.utilization(N),
        guaranteed_delivered,
    )


def run_experiment():
    demand = guaranteed_demand(random.Random(77))
    return {
        policy: run_policy(policy, demand, seed=13)
        for policy in ("first_fit", "packed", "packed_spread")
    }


def test_e12_mixed_traffic_packing(benchmark, report_sink):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ExperimentReport(
        "E12", "best-effort performance under frame-schedule arrangement"
    )
    table = Table(
        [
            "policy",
            "slots touched by reservations",
            "mean latency (all cells)",
            "p99",
            "total throughput",
            "guaranteed cells delivered",
        ]
    )
    for policy, (used, mean_lat, p99, tput, gdel) in results.items():
        table.add_row(policy, used, mean_lat, p99, tput, gdel)
    report.add_table(table)

    first_fit = results["first_fit"]
    packed = results["packed"]
    spread = results["packed_spread"]
    report.check(
        "packing frees whole slots",
        "fewer slots touched than first-fit",
        f"{packed[0]} vs {first_fit[0]}",
        holds=packed[0] <= first_fit[0],
    )
    report.check(
        "best-effort latency: packed+spread vs first-fit",
        "spread-out free slots help",
        f"{spread[1]:.1f} vs {first_fit[1]:.1f} slots",
        holds=spread[1] <= first_fit[1] * 1.10,
    )
    report.check(
        "guaranteed traffic unharmed by arrangement",
        "same reserved throughput under all policies",
        f"{min(r[4] for r in results.values())} vs "
        f"{max(r[4] for r in results.values())}",
        holds=(
            max(r[4] for r in results.values())
            - min(r[4] for r in results.values())
        )
        < 0.02 * max(r[4] for r in results.values()) + 50,
    )
    report_sink(report)
    assert report.all_hold
