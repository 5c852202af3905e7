"""Ablation A4 -- reconfiguration scaling and the linear-tree worst case.

Paper (section 2): "The tree produced in this way is a propagation-order
spanning tree.  In the worst case, the tree could be linear, and there
would be no parallelism during execution of the algorithm.  It has been
observed in practice, however, that the first invitation a switch
receives usually comes from one of the set of neighbors closest to the
root."

We time complete reconfigurations on a line (the forced worst case: the
propagation tree *is* linear) against grids and random redundant graphs
of the same size, on the in-memory bus so only protocol time counts.
Expected shape: line completion time grows linearly with N, the others
with diameter (~sqrt N or log N); message counts grow with edges.
"""

import random

from repro._types import switch_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.net.topology import Topology
from tests.core.reconfig.test_algorithm import FakeBus

SIZES = (9, 16, 25, 36)


def run_one(topo, trigger_num=0, delay_us=10.0):
    bus = FakeBus(topo, delay_us=delay_us)
    bus.agents[switch_id(trigger_num)].trigger()
    bus.sim.run(until=1_000_000.0)
    assert bus.all_done_same_view()
    completion = max(
        a.completed_at for a in bus.agents.values() if a.completed_at
    )
    messages = sum(a.stats.messages_sent for a in bus.agents.values())
    depth = max(a.tree_depth for a in bus.agents.values())
    return completion, messages, depth


def run_experiment():
    rows = []
    for n in SIZES:
        side = int(n ** 0.5)
        line_t, line_m, line_d = run_one(Topology.line(n))
        grid_t, grid_m, grid_d = run_one(Topology.grid(side, side))
        rnd_t, rnd_m, rnd_d = run_one(
            Topology.random_connected(n, extra_edges=n, rng=random.Random(n))
        )
        rows.append(
            (n, (line_t, line_d), (grid_t, grid_d), (rnd_t, rnd_d),
             (line_m, grid_m, rnd_m))
        )
    return rows


def test_a4_reconfiguration_scaling(report_sink):
    rows = run_experiment()

    report = ExperimentReport(
        "A4", "reconfiguration time vs topology shape (protocol time only)"
    )
    table = Table(
        [
            "switches",
            "line: time us / depth",
            "grid: time us / depth",
            "random: time us / depth",
        ]
    )
    for n, line, grid, rnd, _messages in rows:
        table.add_row(
            n,
            f"{line[0]:.0f} / {line[1]}",
            f"{grid[0]:.0f} / {grid[1]}",
            f"{rnd[0]:.0f} / {rnd[1]}",
        )
    report.add_table(table)

    # Line: depth is exactly N-1 (no parallelism), and time grows
    # linearly; grid depth is ~2*sqrt(N).
    line_depths_linear = all(row[1][1] == row[0] - 1 for row in rows)
    report.check(
        "line is the linear worst case",
        "tree depth N-1, no parallelism",
        "depth == N-1 at every size" if line_depths_linear else "no",
        holds=line_depths_linear,
    )
    first, last = rows[0], rows[-1]
    line_growth = last[1][0] / first[1][0]
    grid_growth = last[2][0] / first[2][0]
    size_growth = last[0] / first[0]
    report.check(
        "line time grows ~linearly with N",
        f"~x{size_growth:.0f} over the sweep",
        f"x{line_growth:.1f}",
        holds=line_growth > 0.6 * size_growth,
    )
    report.check(
        "redundant topologies parallelize",
        "grid time grows ~sqrt(N), well below line",
        f"grid x{grid_growth:.1f} vs line x{line_growth:.1f}",
        holds=grid_growth < 0.6 * line_growth,
    )
    last_messages = rows[-1][4]
    report.check(
        "message cost modest",
        "O(edges) messages per reconfiguration",
        f"line/grid/random @36 switches: {last_messages}",
        holds=all(m < 36 * 36 for m in last_messages),
    )
    report_sink(report)
    assert report.all_hold
