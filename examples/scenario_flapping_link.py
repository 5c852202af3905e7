#!/usr/bin/env python3
"""An intermittently failing trunk vs. the skeptic's hold-downs.

Section 2: "Care must be taken that an intermittent fault does not
cause a link to make frequent transitions between the two states, for
each transition would trigger a reconfiguration...  a skeptic module
...requires an increasingly long period of correct operation before
the link is considered to be recovered."

The plan flaps one grid trunk five times.  The invariant checker
verifies that no skeptic in the network published more verdict changes
than the escalating-probation bound allows -- i.e. the flapping link
was quarantined instead of driving reconfiguration storms -- and that
the network still converged to reality once the link calmed down.

Run:  PYTHONPATH=src python examples/scenario_flapping_link.py
"""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import build_flapping_link


def main() -> None:
    net, plan, loads = build_flapping_link(seed=3)
    print("scenario: flap trunk s1<->s4 while h0->h1 traffic flows")
    print(plan.describe())
    print()
    result = ScenarioRunner(net, plan, loads).run()
    print(result.report())
    print()
    # Show what the skeptics on the flapped link went through.
    for switch_name in ("s1", "s4"):
        skeptic = next(
            m.skeptic for m in net.switch(switch_name).monitors.values()
            if m.skeptic.failures_seen
        )
        print(
            f"{switch_name}: {skeptic.failures_seen} failures seen, "
            f"{len(skeptic.verdict_changes)} verdicts published, "
            f"final level {skeptic.level}"
        )
    raise SystemExit(0 if result.passed else 1)


if __name__ == "__main__":
    main()
