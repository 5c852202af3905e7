"""Tests for drifting clocks."""

import pytest

from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator


def test_zero_drift_tracks_global_time():
    sim = Simulator()
    clock = DriftingClock(sim)
    sim.run(until=1000.0)
    assert clock.local_now() == pytest.approx(1000.0)
    assert clock.global_delay(500.0) == pytest.approx(500.0)


def test_positive_drift_runs_fast():
    sim = Simulator()
    clock = DriftingClock(sim, drift_ppm=100.0)
    sim.run(until=1_000_000.0)
    assert clock.local_now() == pytest.approx(1_000_100.0)


def test_negative_drift_runs_slow():
    sim = Simulator()
    clock = DriftingClock(sim, drift_ppm=-100.0)
    sim.run(until=1_000_000.0)
    assert clock.local_now() == pytest.approx(999_900.0)


def test_global_delay_inverse_of_local_delay():
    sim = Simulator()
    clock = DriftingClock(sim, drift_ppm=250.0)
    local = 12345.0
    start = clock.local_now()
    sim.run(until=clock.global_delay(local))
    assert clock.local_now() - start == pytest.approx(local)


def test_offset_applies():
    sim = Simulator()
    clock = DriftingClock(sim, offset=7.0)
    assert clock.local_now() == pytest.approx(7.0)


def test_a_fast_clock_waits_less_global_time():
    sim = Simulator()
    fast = DriftingClock(sim, drift_ppm=500.0)
    slow = DriftingClock(sim, drift_ppm=-500.0)
    # To wait one local second, the fast clock needs less global time.
    assert fast.global_delay(1e6) < 1e6 < slow.global_delay(1e6)


def test_negative_delays_rejected():
    sim = Simulator()
    clock = DriftingClock(sim)
    with pytest.raises(ValueError):
        clock.global_delay(-1.0)


def test_absurd_drift_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        DriftingClock(sim, drift_ppm=-2_000_000.0)


def test_set_drift_changes_rate_without_phase_jump():
    sim = Simulator()
    clock = DriftingClock(sim, drift_ppm=100.0)
    sim.run(until=1_000_000.0)
    before = clock.local_now()
    clock.set_drift(-300.0)
    # Continuity: the local clock does not jump at the step...
    assert clock.local_now() == pytest.approx(before)
    # ...but from here on it runs at the new rate.
    sim.run(until=2_000_000.0)
    assert clock.local_now() == pytest.approx(before + 1_000_000.0 - 300.0)
    assert clock.drift_ppm == -300.0


def test_set_drift_rejects_impossible_rate():
    sim = Simulator()
    clock = DriftingClock(sim)
    with pytest.raises(ValueError):
        clock.set_drift(-2_000_000.0)
