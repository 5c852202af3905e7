"""E5 -- Overlapping reconfigurations: the largest epoch tag wins.

Paper (section 2): "To ensure that the results are consistent when
configurations overlap, each reconfiguration message is tagged with an
epoch number and the id of the initiating switch...  Thus a switch that
sees multiple configurations participates in the one with the largest
tag and eventually ignores all others."

We trigger k concurrent reconfigurations at random switches with
adversarial stagger and verify that every switch converges to one
identical view under one tag, across many trials.
"""

import random

from repro._types import switch_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.reconfig.epoch import EpochTag
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig


def bench_config():
    return SwitchConfig(
        frame_slots=32,
        control_delay_us=15.0,
        ping_interval_us=800.0,
        ack_timeout_us=300.0,
        boot_reconfig_delay_us=3_000.0,
        skeptic_base_wait_us=5_000.0,
    )


def run_experiment():
    rows = []
    for concurrency in (2, 4, 8):
        trials, agreed, total_aborts = 0, 0, 0
        for trial in range(4):
            rng = random.Random(concurrency * 100 + trial)
            topo = Topology.random_connected(12, extra_edges=10, rng=rng)
            net = Network(
                topo, seed=trial + concurrency, switch_config=bench_config()
            )
            net.start()
            net.run_until_converged(timeout_us=1_000_000)
            # Adversarial stagger: trigger at k random switches over a
            # window comparable to message latency.
            victims = rng.sample(range(12), concurrency)
            for offset, victim in enumerate(victims):
                net.sim.schedule(
                    offset * 37.0,
                    net.switch(f"s{victim}").reconfig.trigger,
                )
            net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
            trials += 1
            views = {s.reconfig.view for s in net.switches.values()}
            tags = {s.reconfig.view_tag for s in net.switches.values()}
            if len(views) == 1 and len(tags) == 1:
                agreed += 1
            total_aborts += sum(
                s.reconfig.stats.aborted for s in net.switches.values()
            )
        rows.append((concurrency, trials, agreed, total_aborts))
    return rows


def test_e5_overlapping_reconfigurations(report_sink):
    rows = run_experiment()

    report = ExperimentReport(
        "E5", "overlapping reconfigurations serialize via epoch tags"
    )
    table = Table(
        ["concurrent triggers", "trials", "all agreed", "aborted participations"]
    )
    for concurrency, trials, agreed, aborts in rows:
        table.add_row(concurrency, trials, f"{agreed}/{trials}", aborts)
    report.add_table(table)

    all_agreed = all(agreed == trials for _, trials, agreed, _ in rows)
    report.check(
        "one view, one tag after overlap",
        "always",
        "yes" if all_agreed else "no",
        holds=all_agreed,
    )
    any_aborts = any(aborts > 0 for *_, aborts in rows)
    report.check(
        "losing configurations were aborted",
        "switches abandon smaller tags",
        "observed" if any_aborts else "none observed",
        holds=any_aborts,
    )
    report_sink(report)
    assert report.all_hold


def test_e5_tag_ordering_is_total():
    """The tag comparison (it runs on every message) is a total order
    on a dense sample."""

    tags = [
        EpochTag(epoch, switch_id(num))
        for epoch in range(50)
        for num in range(50)
    ]
    ordered = sorted(tags)
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
