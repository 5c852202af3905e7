"""E11 -- Starvation: maximum matching starves, PIM's randomness does not.

Paper (section 3): "maximum matching can lead to starvation.  For
example, suppose input 1 consistently has cells for outputs 2 and 3, and
input 4 consistently has cells for output 3.  The maximum match always
pairs input 1 with output 2 and input 4 with output 3, and the virtual
circuit [from input 1 to output 3] will be starved.  In contrast, the
randomness in parallel iterative matching protects against starvation."

(The paper's sentence names "input 1 with output 2" as starved; from its
own premise the starved circuit is input 1 -> output 3 -- the one the
unique maximum matching never serves.  We reproduce the phenomenon.)
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.stats import jain_fairness
from repro.analysis.tables import Table
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.core.matching.maximum import MaximumMatcher
from repro.switch.fabric import VoqFabric, run_fabric
from repro.traffic.arrivals import StarvationPattern

N = 16
SLOTS = 4_000
FLOWS = [(1, 2), (1, 3), (4, 3)]


def service_counts(scheduler):
    # AN2-style per-VC buffers: each circuit keeps its own (bounded)
    # queue, so a backlogged circuit cannot crowd a sibling out of the
    # buffer pool -- the *scheduler* alone decides who gets served.
    fabric = VoqFabric(N, scheduler, per_vc_capacity=64)
    metrics = run_fabric(fabric, StarvationPattern(N), SLOTS)
    return {flow: metrics.delivered_per_pair.get(flow, 0) for flow in FLOWS}


def run_experiment():
    return {
        "maximum matching": service_counts(MaximumMatcher(N)),
        "PIM (3 iterations)": service_counts(
            BitmaskPim(N, 3, random.Random(8))
        ),
        "iSLIP (3 iterations)": service_counts(BitmaskIslip(N, 3)),
    }


def test_e11_starvation(report_sink):
    results = run_experiment()

    report = ExperimentReport(
        "E11", "the paper's starvation pattern (1->{2,3}, 4->{3})"
    )
    table = Table(
        ["scheduler", "1->2 served", "1->3 served", "4->3 served", "fairness"]
    )
    for name, counts in results.items():
        table.add_row(
            name,
            counts[(1, 2)],
            counts[(1, 3)],
            counts[(4, 3)],
            jain_fairness([float(counts[f]) for f in FLOWS]),
        )
    report.add_table(table)

    maximum = results["maximum matching"]
    report.check(
        "maximum matching starves 1->3",
        "0 cells served (buffer fills, then stays starved)",
        f"{maximum[(1, 3)]} cells in {SLOTS} slots",
        holds=maximum[(1, 3)] <= 64,  # at most the buffer drain
    )
    pim = results["PIM (3 iterations)"]
    minimum_share = min(pim.values()) / SLOTS
    report.check(
        "PIM serves every circuit",
        "randomness prevents starvation",
        f"min service share {minimum_share:.2f} of slots",
        holds=min(pim.values()) > SLOTS * 0.2,
    )
    pim_fair = jain_fairness([float(pim[f]) for f in FLOWS])
    max_fair = jain_fairness([float(maximum[f]) for f in FLOWS])
    report.check(
        "PIM fairness (Jain) vs maximum matching",
        "strictly better (the paper claims protection, not equality)",
        f"{pim_fair:.3f} vs {max_fair:.3f}",
        holds=pim_fair > max_fair + 0.05,
    )
    islip = results["iSLIP (3 iterations)"]
    report.check(
        "iSLIP ablation",
        "round-robin also starvation-free",
        f"min served {min(islip.values())}",
        holds=min(islip.values()) > SLOTS * 0.2,
    )
    report_sink(report)
    assert report.all_hold
