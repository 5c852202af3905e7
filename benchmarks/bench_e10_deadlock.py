"""E10 -- Deadlock: why AN1 needed up*/down*, why AN2 does not.

Paper (section 5):

- FIFO buffers + unrestricted routes admit a circular wait ("If a cycle
  of blocked links could arise... then deadlock could occur");
- "Messages are only routed on up*/down* paths...  This restriction is
  sufficient to prevent cycle formation and thus to prevent deadlock";
- "Up*/down* routing may eliminate some potential routes and thus have a
  negative effect on performance" -- we quantify the path inflation;
- AN2: "The buffers for different virtual circuits are independent...
  Since the links of a single virtual circuit can not form a cycle,
  deadlock cannot occur" -- even with one buffer per VC.
"""

import random

from repro._types import switch_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.core.flowcontrol.deadlock import (
    fifo_wait_for_graph,
    per_vc_wait_for_graph,
)
from repro.core.routing.updown import UpDownOrientation
from repro.net.topology import Topology


def ring_pressure_routes(n):
    """Adversarial circular traffic on an n-ring, routed the short way."""
    return [
        [switch_id(i), switch_id((i + 1) % n), switch_id((i + 2) % n)]
        for i in range(n)
    ]


def legal_routes_all_pairs(topo, root, rng, n_routes):
    orientation = UpDownOrientation(topo.view(), root)
    switches = topo.switches()
    routes = []
    for _ in range(n_routes):
        a, b = rng.sample(switches, 2)
        nodes, _ = orientation.shortest_legal_path(a, b)
        routes.append(nodes)
    return orientation, routes


def run_experiment():
    # Part 1: the ring deadlock and its three resolutions.
    ring = ring_pressure_routes(6)
    fifo_cycle = fifo_wait_for_graph(ring).has_cycle()
    per_vc_cycle = per_vc_wait_for_graph(ring).has_cycle()

    # The same ring topology under up*/down*: all legal routes, ever.
    ring_topo = Topology.ring(6)
    orientation, legal = legal_routes_all_pairs(
        ring_topo, switch_id(0), random.Random(1), n_routes=60
    )
    legal_cycle = fifo_wait_for_graph(legal).has_cycle()

    # Part 2: path inflation across random redundant topologies.
    inflation_rows = []
    for n in (8, 16, 24):
        rng = random.Random(n)
        topo = Topology.random_connected(n, extra_edges=n, rng=rng)
        orientation = UpDownOrientation(topo.view(), switch_id(0))
        ratios = []
        inflated = 0
        pairs = 0
        for a in topo.switches():
            for b in topo.switches():
                if a >= b:
                    continue
                legal_path = orientation.shortest_legal_path(a, b)
                free_path = orientation.shortest_unrestricted_path(a, b)
                pairs += 1
                ratio = len(legal_path[1]) / max(1, len(free_path[1]))
                ratios.append(ratio)
                inflated += ratio > 1.0
        inflation_rows.append(
            (n, mean(ratios), max(ratios), 100 * inflated / pairs)
        )
    return fifo_cycle, per_vc_cycle, legal_cycle, inflation_rows


def test_e10_deadlock_and_route_restriction(report_sink):
    fifo_cycle, per_vc_cycle, legal_cycle, inflation_rows = run_experiment()

    report = ExperimentReport(
        "E10", "deadlock avoidance: up*/down* (AN1) and per-VC buffers (AN2)"
    )
    report.check(
        "FIFO + unrestricted ring routes",
        "circular wait exists",
        "cycle found" if fifo_cycle else "no cycle",
        holds=fifo_cycle,
    )
    report.check(
        "FIFO + up*/down* routes (any pair, ring)",
        "wait-for graph acyclic",
        "acyclic" if not legal_cycle else "CYCLE",
        holds=not legal_cycle,
    )
    report.check(
        "per-VC buffers, same circular traffic",
        "deadlock impossible (1 buffer/VC suffices)",
        "acyclic" if not per_vc_cycle else "CYCLE",
        holds=not per_vc_cycle,
    )

    table = Table(
        [
            "switches",
            "mean path inflation",
            "worst inflation",
            "% pairs inflated",
        ]
    )
    for n, mean_ratio, worst, pct in inflation_rows:
        table.add_row(n, mean_ratio, worst, pct)
    report.add_table(table)
    modest = all(mean_ratio < 1.5 for _, mean_ratio, _, _ in inflation_rows)
    report.check(
        "up*/down* performance cost",
        "some routes eliminated; modest on redundant topologies",
        f"mean inflation {max(r[1] for r in inflation_rows):.3f}x worst case",
        holds=modest,
    )
    report_sink(report)
    assert report.all_hold
