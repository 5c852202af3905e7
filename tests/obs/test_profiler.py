"""The kernel's one profiler hook: ``Simulator.profiler``.

Any object with ``dispatch(callback, args)`` may sit on it; the e2e
benchmark's per-layer table is built by the one that does
(``benchmarks/e2e/spans.py``).  The hook must see every event and change
nothing the simulation does.
"""

from repro.conform.digest import (
    RunDigest,
    digest_scenario,
    fingerprint_network,
    replay_network,
    run_replay_traffic,
)
from repro.sim.kernel import Simulator


class CountingHook:
    """The smallest profiler: count dispatches, run each callback once."""

    def __init__(self) -> None:
        self.dispatches = 0

    def dispatch(self, callback, args) -> None:
        self.dispatches += 1
        callback(*args)


def test_profiler_is_digest_neutral():
    """The hook sees exactly the executed events, leaves the run digest
    unchanged, and detaching it restores the class-level loop."""
    net = replay_network(1)
    digest = RunDigest()
    hook = CountingHook()
    net.sim.digest = digest
    net.sim.profiler = hook
    run_replay_traffic(net, 80_000.0)
    net.sim.digest = None
    digest.absorb("network-state", fingerprint_network(net))

    assert hook.dispatches == net.sim.events_executed
    assert digest.hexdigest() == digest_scenario(1)
    net.sim.profiler = None
    assert "run" not in net.sim.__dict__
    assert net.sim.run.__func__ is Simulator.run
