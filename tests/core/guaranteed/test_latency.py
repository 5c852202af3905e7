"""Tests for the guaranteed-traffic bounds (section 4 formulas)."""

import pytest

from repro.constants import FAST_CELL_TIME_US, FRAME_SLOTS
from repro.core.guaranteed.latency import (
    buffer_requirement_cells,
    guaranteed_latency_bound_us,
    per_switch_jitter_bound_us,
)


def test_frame_time_near_half_millisecond():
    """"With 1 gigabit-per-second links, it takes less than half a
    millisecond to transmit a frame" -- at 622 Mb/s ours is ~0.7 ms, and
    at 1 Gb/s the paper's statement holds."""
    gbit_cell_time = 53 * 8 / 1e9 * 1e6
    assert FRAME_SLOTS * gbit_cell_time < 500.0
    assert FRAME_SLOTS * FAST_CELL_TIME_US == pytest.approx(700.0, rel=0.01)


def test_latency_bound_formula():
    assert guaranteed_latency_bound_us(3, 100.0, 7.0) == pytest.approx(
        3 * (200.0 + 7.0)
    )
    assert guaranteed_latency_bound_us(0, 100.0, 7.0) == 0.0


def test_latency_bound_validation():
    with pytest.raises(ValueError):
        guaranteed_latency_bound_us(-1, 100.0, 0.0)


def test_per_switch_jitter_below_one_millisecond():
    """Section 4: latency and jitter "less than 1 millisecond per switch"
    for sub-half-millisecond frames."""
    gbit_cell_time = 53 * 8 / 1e9 * 1e6
    f = FRAME_SLOTS * gbit_cell_time
    assert per_switch_jitter_bound_us(f) < 1000.0


def test_buffer_requirements():
    assert buffer_requirement_cells(1024, synchronous=True) == 2048
    assert buffer_requirement_cells(1024, synchronous=False) == 4096
    with pytest.raises(ValueError):
        buffer_requirement_cells(0)
