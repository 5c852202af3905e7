"""E4 -- Automatic reconfiguration: speed, agreement, and tree shape.

Paper claims bundled here:

- section 1: SRC's >100-workstation AN1 LAN reconfigures "in less than
  200 milliseconds" after pulling the plug on an arbitrary switch;
- section 2: at the end of a reconfiguration "each switch knows the full
  topology";
- section 2: the propagation-order tree "is usually very close to a
  breadth-first tree, yielding high parallelism".
"""

import random
from collections import deque

from repro._types import switch_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.constants import RECONFIGURATION_BUDGET_US
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig


def bench_config():
    return SwitchConfig(
        frame_slots=32,
        control_delay_us=20.0,
        ping_interval_us=1_000.0,
        ack_timeout_us=400.0,
        miss_threshold=3,
        skeptic_base_wait_us=5_000.0,
        boot_reconfig_delay_us=3_500.0,
    )


def bfs_depths(view, root):
    adjacency = {}
    for (na, _), (nb, _) in view.edges:
        if na.is_switch and nb.is_switch:
            adjacency.setdefault(na, []).append(nb)
            adjacency.setdefault(nb, []).append(na)
    depth = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, []):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    return depth


def run_experiment():
    rows = []
    tree_ratios = []
    for n_switches in (8, 16, 24, 32):
        topo = Topology.random_connected(
            n_switches,
            extra_edges=n_switches,
            rng=random.Random(n_switches),
        )
        net = Network(topo, seed=n_switches, switch_config=bench_config())
        net.start()
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)

        # Crash a random interior switch, time the recovery.
        victim = switch_id(random.Random(n_switches + 1).randrange(n_switches))
        t0 = net.now
        net.crash_switch(victim)
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        recovery_us = net.now - t0

        messages = sum(
            s.reconfig.stats.messages_sent for s in net.switches.values()
        )
        agreement = net.converged_view() == net.expected_view_for(
            net.main_component_switches()
        )

        root = net.reconfig_root()
        depths = bfs_depths(net.converged_view(), root)
        max_bfs = max(depths.values()) if depths else 0
        max_tree = max(
            net.switches[s].reconfig.tree_depth
            for s in net.main_component_switches()
        )
        tree_ratios.append((max_tree + 1) / (max_bfs + 1))
        rows.append(
            (n_switches, recovery_us, messages, agreement, max_tree, max_bfs)
        )
    return rows, tree_ratios


def test_e4_reconfiguration(report_sink):
    rows, tree_ratios = run_experiment()

    report = ExperimentReport(
        "E4", "reconfiguration after pulling the plug on a random switch"
    )
    table = Table(
        [
            "switches",
            "recovery (us)",
            "messages (cumulative)",
            "views == reality",
            "tree depth",
            "BFS depth",
        ]
    )
    for n, recovery, messages, agreement, tree_depth, bfs_depth in rows:
        table.add_row(n, recovery, messages, agreement, tree_depth, bfs_depth)
    report.add_table(table)

    worst_recovery = max(recovery for _, recovery, _, _, _, _ in rows)
    report.check(
        "recovery time (up to 32 switches)",
        "< 200 ms",
        f"{worst_recovery/1000:.1f} ms",
        holds=worst_recovery < RECONFIGURATION_BUDGET_US,
    )
    report.check(
        "every switch learns the full topology",
        "all agree with reality",
        "yes" if all(r[3] for r in rows) else "no",
        holds=all(r[3] for r in rows),
    )
    worst_ratio = max(tree_ratios)
    report.check(
        "propagation tree near breadth-first",
        "depth ~ BFS depth",
        f"worst depth ratio x{worst_ratio:.2f}",
        holds=worst_ratio <= 2.0,
    )
    report_sink(report)
    assert report.all_hold
