"""E6 -- The skeptic: flapping links must not melt the network.

Paper (section 2): "an intermittent fault [must] not cause a link to make
frequent transitions between the two states, for each transition would
trigger a reconfiguration, and too-frequent reconfigurations can keep
the network from providing service...  If failures recur, the skeptic
requires an increasingly long period of correct operation before the
link is considered to be recovered."

We flap one link at increasing rates and compare the number of published
verdict transitions (hence reconfigurations) with and without the
skeptic's escalation (max_level=0 disables it).
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.reconfig.skeptic import Skeptic

FLAPS = 40


def drive_flaps(skeptic: Skeptic, up_time_us: float, down_time_us: float) -> int:
    """Simulate FLAPS fail/recover cycles against a skeptic; returns the
    number of published verdict changes."""
    now = 0.0
    for _ in range(FLAPS):
        skeptic.report_failure(now)
        skeptic.tick(now)
        now += down_time_us
        skeptic.report_recovery(now)
        # The link then behaves until the next flap; give the skeptic
        # ticks to finish probation if the quiet period allows.
        quiet_end = now + up_time_us
        step = max(up_time_us / 8.0, 1.0)
        while now < quiet_end:
            now = min(now + step, quiet_end)
            skeptic.tick(now)
    return len(skeptic.verdict_changes)


def run_experiment():
    rows = []
    for up_time_ms in (2.0, 8.0, 32.0, 128.0):
        # Skepticism decays after 50 ms of good behaviour, so a link that
        # fails rarely is eventually trusted quickly again, while a
        # rapidly flapping one never earns decay (it is never WORKING
        # long enough) and stays pinned dead.
        with_skeptic = Skeptic(
            base_wait_us=10_000.0, max_level=8, decay_interval_us=50_000.0
        )
        naive = Skeptic(
            base_wait_us=10_000.0, max_level=0, decay_interval_us=50_000.0
        )
        changes_with = drive_flaps(with_skeptic, up_time_ms * 1000, 500.0)
        changes_naive = drive_flaps(naive, up_time_ms * 1000, 500.0)
        rows.append((up_time_ms, changes_naive, changes_with))
    return rows


def test_e6_skeptic_suppresses_flapping(report_sink):
    rows = run_experiment()

    report = ExperimentReport(
        "E6", "skeptic hold-downs vs a flapping link (40 flaps)"
    )
    table = Table(
        [
            "quiet period between flaps (ms)",
            "verdict changes, fixed 10ms hold-down",
            "verdict changes, escalating skeptic",
        ]
    )
    for up_ms, naive_changes, skeptic_changes in rows:
        table.add_row(up_ms, naive_changes, skeptic_changes)
    report.add_table(table)

    fast_flaps = rows[0]
    report.check(
        "rapid flapping (2 ms quiet)",
        "escalation pins the link dead (1 transition)",
        f"{fast_flaps[2]} transitions",
        holds=fast_flaps[2] <= 3,
    )
    suppression = all(
        skeptic_changes <= naive_changes for _, naive_changes, skeptic_changes in rows
    )
    report.check(
        "escalation never worse than fixed hold-down",
        "fewer or equal transitions at every rate",
        "yes" if suppression else "no",
        holds=suppression,
    )
    slow = rows[-1]
    report.check(
        "slow flapping (128 ms quiet)",
        "link still allowed to recover",
        f"{slow[2]} transitions over 40 flaps",
        holds=slow[2] >= 10,
    )
    report_sink(report)
    assert report.all_hold
