#!/usr/bin/env python3
"""Lost flow-control cells vs. credit resynchronization.

Section 5: the credit scheme keeps *cumulative* counters at both ends
precisely so that it is "robust in the face of lost flow-control
messages" -- a lost credit only shrinks the usable window, and the
periodic resynchronization protocol restores it from the counters.

The plan drops plain credit cells on two trunks of the h0->h1 route
(resync request/reply cells survive).  The conservation invariant then
demands that at quiescence every credit balance equals exactly
``allocation - (cells_sent - buffers_freed)`` -- the windows were
restored, not merely patched.

Run:  PYTHONPATH=src python examples/scenario_credit_loss.py
"""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import build_credit_loss


def main() -> None:
    net, plan, loads = build_credit_loss(seed=5)
    print("scenario: drop credit cells on the backbone, let resync repair it")
    print(plan.describe())
    print()
    result = ScenarioRunner(net, plan, loads).run()
    print(result.report())
    print()
    gauges = net.metrics_snapshot()["faults"]["gauges"]
    print(f"credit cells destroyed: {gauges['credit_cells_dropped']}")
    stalls = sum(
        u.stalls
        for s in net.switches.values()
        for c in s.cards
        for u in c.upstream.values()
    )
    print(f"send stalls at switches while windows were shrunk: {stalls}")
    raise SystemExit(0 if result.passed else 1)


if __name__ == "__main__":
    main()
