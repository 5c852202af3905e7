"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30.0, seen.append, "c")
    sim.schedule(10.0, seen.append, "a")
    sim.schedule(20.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for label in "abcde":
        sim.schedule(5.0, seen.append, label)
    sim.run()
    assert seen == list("abcde")


def test_now_reflects_event_time_inside_callback():
    sim = Simulator()
    observed = []
    sim.schedule(42.0, lambda: observed.append(sim.now))
    sim.run()
    assert observed == [42.0]


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(5.0, second)

    def second():
        seen.append(("second", sim.now))

    sim.schedule(10.0, first)
    sim.run()
    assert seen == [("first", 10.0), ("second", 15.0)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(10.0, seen.append, "x")
    sim.schedule(5.0, event.cancel)
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(50.0, seen.append, "early")
    sim.schedule(150.0, seen.append, "late")
    sim.run(until=100.0)
    assert seen == ["early"]
    assert sim.now == 100.0
    sim.run()
    assert seen == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nan_time_rejected():
    """NaN compares false both ways: ``time < now`` let it through and it
    then broke the heap's order for every event around it."""
    sim = Simulator()
    seen = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, seen.append, delay)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), seen.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), seen.append, "nan")
    assert sim.pending() == 3
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_equal_times_are_fifo_and_events_are_never_compared():
    """Heap entries order on ``(time, seq)`` alone: the events themselves
    (and their callbacks) need no ordering, however times tie."""
    from repro.sim.kernel import Event

    assert "__lt__" not in vars(Event)
    sim = Simulator()
    seen = []
    events = [
        sim.schedule_at(time, seen.append, (time, index))
        for index, time in enumerate([2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 0.0])
    ]
    assert [event.seq for event in events] == list(range(7))
    assert [event.time for event in events] == [2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 0.0]
    events[3].cancel()
    assert sim.peek() == 0.0
    sim.run()
    assert seen == [(0.0, 6), (1.0, 1), (1.0, 4), (2.0, 0), (2.0, 2), (2.0, 5)]


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(5.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    event.cancel()
    assert sim.peek() == 9.0


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.pending() == 1


def test_max_events_limits_execution():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_cancel_after_firing_is_a_no_op():
    """A fired event stays fired: ``cancel()`` neither marks it cancelled
    nor moves ``pending()``."""
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.pending() == 1
    fired.cancel()
    assert not fired.cancelled
    assert sim.pending() == 1
    sim.run()
    assert sim.events_executed == 2 and sim.pending() == 0


def test_an_event_is_its_own_heap_entry():
    sim = Simulator()
    callback = print
    event = sim.schedule_at(3.0, callback, "x")
    assert list(event) == [3.0, 0, callback, ("x",), sim]
    assert (event.time, event.seq, event.callback, event.args) == (
        3.0, 0, callback, ("x",),
    )
    assert not event.cancelled
    with pytest.raises(AttributeError):
        event.time = 4.0
    event.cancel()
    assert event.cancelled and sim.pending() == 0


@pytest.mark.parametrize("instrumented", [False, True])
def test_recorder_sees_events_run_before_a_callback_raised(instrumented):
    """``run`` counts executed events in a local; the count reaches
    ``events_executed`` before the flight recorder reads it, and it
    includes the event whose callback raised."""
    from repro.conform.digest import RunDigest
    from repro.obs import FlightRecorder

    def boom():
        raise RuntimeError("boom")

    sim = Simulator()
    sim.recorder = FlightRecorder()
    if instrumented:
        sim.digest = RunDigest()
    for time in (1.0, 2.0):
        sim.schedule_at(time, lambda: None)
    sim.schedule_at(3.0, boom)
    sim.schedule_at(4.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    (record,) = [row for row in sim.recorder.snapshot() if row["comp"] == "kernel"]
    assert record["data"]["events_executed"] == 3
    assert sim.events_executed == 3
    sim.run()
    assert sim.events_executed == 4
