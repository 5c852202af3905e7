"""Tests for frame-schedule packing/spreading policies."""

import random

import pytest

from repro.core.guaranteed.frames import ScheduleError
from repro.core.guaranteed.packing import (
    first_fit_schedule,
    make_policy_schedule,
    packed_schedule,
    packed_spread_schedule,
    spread_schedule,
)


def demand_4x4():
    return [
        [0, 1, 1, 1],
        [2, 0, 0, 0],
        [0, 2, 0, 1],
        [1, 0, 1, 0],
    ]


def max_line_load(demand):
    n = len(demand)
    rows = [sum(demand[i]) for i in range(n)]
    cols = [sum(demand[i][o] for i in range(n)) for o in range(n)]
    return max(rows + cols)


class TestPolicies:
    def test_all_policies_realize_demand(self):
        demand = demand_4x4()
        for policy in ("first_fit", "packed", "packed_spread"):
            schedule = make_policy_schedule(policy, 4, 16, demand)
            schedule.check_consistent()
            assert schedule.reservation_matrix() == demand

    def test_packed_uses_minimum_slots(self):
        """Packing fits all demand into max(row/col sum) slots (optimal)."""
        rng = random.Random(5)
        for _ in range(10):
            demand = [[rng.randint(0, 2) for _ in range(4)] for _ in range(4)]
            schedule = packed_schedule(4, 16, demand)
            schedule.check_consistent()
            assert schedule.reservation_matrix() == demand
            assert schedule.slots_used() == max_line_load(demand)

    def test_packed_no_worse_than_first_fit(self):
        rng = random.Random(7)
        for _ in range(10):
            demand = [[rng.randint(0, 2) for _ in range(4)] for _ in range(4)]
            packed = packed_schedule(4, 16, demand)
            loose = first_fit_schedule(4, 16, demand)
            assert packed.slots_used() <= loose.slots_used()

    def test_spread_preserves_matchings(self):
        demand = demand_4x4()
        packed = packed_schedule(4, 16, demand)
        spread = spread_schedule(packed)
        spread.check_consistent()
        assert spread.reservation_matrix() == demand
        assert spread.slots_used() == packed.slots_used()

    def test_spread_distributes_used_slots(self):
        demand = demand_4x4()  # packs into 3 of 16 slots
        spread = packed_spread_schedule(4, 16, demand)
        used = [
            slot for slot in range(16) if spread.slot_assignments(slot)
        ]
        # Evenly spread: gaps of ~16/3; never all adjacent.
        gaps = [b - a for a, b in zip(used, used[1:])]
        assert min(gaps) >= 4

    def test_packed_maximizes_completely_free_slots(self):
        """Packed schedules leave more completely-free slots, hence more
        best-effort opportunity, than first-fit (the section-4 argument)."""
        rng = random.Random(11)
        for _ in range(10):
            demand = [
                [rng.randint(0, 3) for _ in range(4)] for _ in range(4)
            ]
            packed = packed_schedule(4, 32, demand)
            loose = first_fit_schedule(4, 32, demand)
            assert packed.slots_used() <= loose.slots_used()


class TestValidation:
    def test_overcommitted_demand_rejected(self):
        demand = [[9, 0], [0, 0]]
        with pytest.raises(ScheduleError):
            packed_schedule(2, 4, demand)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            packed_schedule(3, 4, [[0, 0], [0, 0]])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy_schedule("fancy", 2, 2, [[0, 0], [0, 0]])

    def test_empty_demand(self):
        schedule = packed_schedule(4, 8, [[0] * 4 for _ in range(4)])
        assert schedule.slots_used() == 0
        assert spread_schedule(schedule).slots_used() == 0
