"""The baseline solution: recover nothing, observe nothing.

``do_nothing`` exists so every comparison table has an honest zero
point, and it is what :class:`~repro.faults.runner.ScenarioRunner` runs
when no solution is given.  It carries a checkable contract: because it
installs no link hooks and schedules no events, a scenario run under it
is *digest-identical* to a run with no recovery machinery at all (the
kernel dispatches the same events in the same order and the network
ends in the same state).  A test pins that digest; any future hook that
breaks it is charging all four solutions for machinery only some of
them use.
"""

from __future__ import annotations

from repro.solutions.base import Solution, register


class DoNothing(Solution):
    """Every hook inherited as a no-op; loss lands where it falls."""

    name = "do_nothing"


register(DoNothing.name, DoNothing)
