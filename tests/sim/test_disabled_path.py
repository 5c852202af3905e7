"""The observability layer's disabled-path cost must stay at zero.

The contract (DESIGN.md, observability): with no digest and no profiler
attached, the kernel runs its uninstrumented class-level loop, the
tracer and flight recorder are never consulted per event, and journey
guards are a single ``cell.trace_ctx is not None`` attribute check.  These tests pin
that down with ``tracemalloc``: a run with instrumentation disabled
must allocate *nothing* from ``repro/obs`` code.
"""

import tracemalloc

from repro.obs.flight import FlightRecorder
from repro.sim.kernel import Simulator

from tests.conftest import converged_line

_OBS_FILTERS = [tracemalloc.Filter(True, "*/repro/obs/*")]


def _obs_bytes(snapshot) -> int:
    return sum(
        stat.size
        for stat in snapshot.filter_traces(_OBS_FILTERS).statistics("lineno")
    )


def test_recorder_attachment_keeps_the_plain_event_loop():
    """A FlightRecorder must NOT trigger the instrumented-loop swap."""
    sim = Simulator()
    sim.recorder = FlightRecorder()
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert "step" not in sim.__dict__
    assert "run" not in sim.__dict__


def test_event_storm_with_recorder_allocates_nothing_in_obs():
    """The kernel hot loop with an (idle) recorder: zero obs allocations."""
    sim = Simulator()
    sim.recorder = FlightRecorder()
    for k in range(5_000):
        sim.schedule_at(float(k), lambda: None)
    tracemalloc.start()
    try:
        sim.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _obs_bytes(snapshot) == 0


def test_quiet_network_steady_state_allocates_nothing_in_obs():
    """A converged, idle network (keepalives only, recorder wired in,
    no tracer, no journey contexts) must never touch repro/obs code."""
    net = converged_line(3)
    net.run(20_000.0)  # flush any residual post-boot transitions
    assert net.sim.recorder is net.recorder  # always-on, but idle
    before_total = net.recorder.records_total
    tracemalloc.start()
    try:
        net.run(50_000.0)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _obs_bytes(snapshot) == 0
    # quiet steady state produced no protocol transitions to record
    assert net.recorder.records_total == before_total


def test_detaching_instrumentation_restores_class_methods():
    from repro.conform.digest import RunDigest

    class Hook:
        def dispatch(self, callback, args):
            callback(*args)

    sim = Simulator()
    sim.digest = RunDigest()
    sim.profiler = Hook()
    # step runs one event through run: only run has an instrumented twin.
    assert "run" in sim.__dict__ and "step" not in sim.__dict__
    sim.digest = None
    assert "run" in sim.__dict__  # profiler still attached
    sim.profiler = None
    assert "step" not in sim.__dict__
    assert "run" not in sim.__dict__
