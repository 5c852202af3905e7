"""Tests for the kernel's zero-overhead tracer attachment."""

from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator


class TestDisabledPathIsFree:
    def test_untraced_step_bytecode_never_touches_tracer(self):
        """The class-level run must compile to the original hot loop:
        no tracer attribute lookups, no guard branches."""
        names = Simulator.run.__code__.co_names
        assert "tracer" not in names
        assert "_tracer" not in names
        assert "emit" not in names

    def test_no_instance_override_when_disabled(self):
        """The tracer is a plain attribute protocol code reads at call
        time: attaching one keeps the class-level loop."""
        sim = Simulator()
        assert "run" not in sim.__dict__
        sim.tracer = Tracer()
        assert "run" not in sim.__dict__


class TestTracedExecution:
    def _schedule_three(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, fired.append, t)
        return fired

    def test_traced_run_respects_until_and_max_events(self):
        sim = Simulator()
        sim.tracer = Tracer()
        fired = self._schedule_three(sim)
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run(max_events=1)
        assert fired == [1.0, 2.0, 3.0]
