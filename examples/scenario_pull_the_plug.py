#!/usr/bin/env python3
"""The pull-the-plug demo as a scripted, invariant-checked scenario.

Where ``examples/pull_the_plug.py`` walks through the demo by hand,
this version drives it through the fault-injection harness
(:mod:`repro.faults`): the crash and restart are declarative plan
events, steady traffic runs throughout, and at the end the harness
*proves* recovery -- one epoch, bounded skeptic activity, exact credit
balances, and not one silently corrupted packet.

Run:  PYTHONPATH=src python examples/scenario_pull_the_plug.py
"""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import build_pull_the_plug


def main() -> None:
    net, plan, loads = build_pull_the_plug(seed=7)
    print("scenario: crash interior switch s4 mid-traffic, restart it later")
    print(plan.describe())
    print()
    result = ScenarioRunner(net, plan, loads).run()
    print(result.report())
    print()
    survivors = net.main_component_switches()
    print(f"final main component: {', '.join(str(s) for s in survivors)}")
    reroutes = sum(s.stats.reroutes for s in net.switches.values())
    print(f"circuits locally rerouted during the outage: {reroutes}")
    raise SystemExit(0 if result.passed else 1)


if __name__ == "__main__":
    main()
