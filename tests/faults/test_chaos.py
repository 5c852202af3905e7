"""Seeded randomized chaos: random fault plans on random bi-connected
topologies, every invariant checked after every run.

Seeds are fixed so the suite is deterministic; each seed derives a
different topology (4-6 switches), plan (3 faults from all six kinds)
and traffic pattern.  A failing seed reproduces exactly with
``python tools/run_scenario.py --random <seed>``.
"""

import pytest

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import build_random_scenario

CHAOS_SEEDS = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_random_plan_holds_invariants(seed):
    net, plan, loads = build_random_scenario(seed)
    result = ScenarioRunner(net, plan, loads).run()
    assert result.passed, (
        f"chaos seed {seed} failed:\n{plan.describe()}\n{result.report()}"
    )


def test_random_scenario_is_deterministic():
    digests = []
    for _ in range(2):
        net, plan, loads = build_random_scenario(2)
        result = ScenarioRunner(net, plan, loads).run()
        digests.append((plan.describe(), result.delivered, result.settled_at_us))
    assert digests[0] == digests[1]
