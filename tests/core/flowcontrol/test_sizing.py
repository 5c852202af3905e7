"""Tests for round-trip credit sizing (section 5)."""

import pytest

from repro.constants import CELL_BITS, FAST_LINK_BPS
from repro.core.flowcontrol.sizing import (
    credits_for_link,
    round_trip_cells,
    round_trip_us,
)


def test_round_trip_time_components():
    cell_time = CELL_BITS / FAST_LINK_BPS * 1e6
    assert round_trip_us(1.0) == pytest.approx(2 * (5.0 + cell_time))
    assert round_trip_us(0.0) == pytest.approx(2 * cell_time)


def test_round_trip_cells_at_least_one():
    assert round_trip_cells(0.0) >= 1


def test_longer_links_need_more_credits():
    assert round_trip_cells(10.0) > round_trip_cells(1.0) > round_trip_cells(0.1)


def test_ten_km_link_cell_count():
    """10 km at 622 Mb/s: RTT ~100 us + serialization; ~150 cells."""
    cells = round_trip_cells(10.0)
    assert 140 <= cells <= 160


def test_credits_include_slack():
    # One cell of slack over the round trip, for timing quantization.
    assert credits_for_link(1.0) == round_trip_cells(1.0) + 1
    assert credits_for_link(0.0) == round_trip_cells(0.0) + 1 == 3


def test_validation():
    with pytest.raises(ValueError):
        round_trip_us(-1.0)
