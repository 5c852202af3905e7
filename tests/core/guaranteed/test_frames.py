"""Tests for frame schedules (Figure 2 semantics)."""

import pytest

from repro.core.guaranteed.frames import (
    FrameSchedule,
    ScheduleError,
    figure2_schedule,
    figure3_initial_schedule,
)


class TestPlacement:
    def test_place_and_lookup(self):
        schedule = FrameSchedule(4, 3)
        schedule.place(0, 1, 2)
        assert schedule.output_of(0, 1) == 2
        assert schedule.input_of(0, 2) == 1
        assert schedule.input_load(1) == 1
        assert schedule.output_load(2) == 1

    def test_input_conflict_rejected(self):
        schedule = FrameSchedule(4, 3)
        schedule.place(0, 1, 2)
        with pytest.raises(ScheduleError):
            schedule.place(0, 1, 3)

    def test_output_conflict_rejected(self):
        schedule = FrameSchedule(4, 3)
        schedule.place(0, 1, 2)
        with pytest.raises(ScheduleError):
            schedule.place(0, 0, 2)

    def test_out_of_range_rejected(self):
        schedule = FrameSchedule(4, 3)
        with pytest.raises(ScheduleError):
            schedule.place(5, 0, 0)
        with pytest.raises(ScheduleError):
            schedule.place(0, 9, 0)

    def test_clear_returns_pair(self):
        schedule = FrameSchedule(4, 3)
        schedule.place(1, 2, 3)
        assert schedule.clear(1, 2) == (2, 3)
        assert schedule.input_load(2) == 0
        with pytest.raises(ScheduleError):
            schedule.clear(1, 2)

    def test_move_is_atomic_on_failure(self):
        schedule = FrameSchedule(4, 2)
        schedule.place(0, 1, 2)
        schedule.place(1, 1, 3)  # destination slot has input 1 busy
        with pytest.raises(ScheduleError):
            schedule.move(0, 1, 1)
        assert schedule.output_of(0, 1) == 2  # restored


class TestQueries:
    def test_find_free_slot(self):
        schedule = FrameSchedule(2, 2)
        schedule.place(0, 0, 1)
        schedule.place(1, 1, 1)
        # Slot 0: input1 free, output0 free -> (1, 0) fits.
        assert schedule.find_free_slot(1, 0) == 0
        assert schedule.find_input_free_slot(0) == 1
        assert schedule.find_output_free_slot(1) is None

    def test_admits_checks_totals(self):
        schedule = FrameSchedule(2, 2)
        schedule.place(0, 0, 1)
        schedule.place(1, 0, 1)
        assert not schedule.admits(0, 0)  # input 0 full
        assert not schedule.admits(1, 1)  # output 1 full
        assert schedule.admits(1, 0)

    def test_reservation_matrix(self):
        schedule = figure2_schedule()
        matrix = schedule.reservation_matrix()
        assert matrix == [
            [0, 1, 1, 1],
            [2, 0, 0, 0],
            [0, 2, 0, 1],
            [1, 0, 1, 0],
        ]

    def test_slots_used_and_total(self):
        schedule = figure2_schedule()
        assert schedule.slots_used() == 3
        assert schedule.total_reserved() == 10

    def test_reserved_pairs_iterates_everything(self):
        schedule = figure2_schedule()
        pairs = list(schedule.reserved_pairs())
        assert len(pairs) == 10
        assert (0, 1, 0) in pairs  # slot 1: 2->1 (0-based)

    def test_copy_is_deep(self):
        schedule = figure2_schedule()
        duplicate = schedule.copy()
        duplicate.clear(0, 0)
        assert schedule.output_of(0, 0) == 2


class TestConsistency:
    def test_figure2_consistent(self):
        figure2_schedule().check_consistent()
        figure3_initial_schedule().check_consistent()

    def test_corruption_detected(self):
        schedule = FrameSchedule(4, 2)
        schedule.place(0, 1, 2)
        schedule._input_total[1] = 0  # sabotage
        with pytest.raises(ScheduleError):
            schedule.check_consistent()

    @pytest.mark.parametrize("attribute", ["_total", "_slots_of"])
    def test_corrupt_tick_indexes_detected(self, attribute):
        """The running total and the per-pair slot index the crossbar
        tick reads are checked against the slot maps too."""
        schedule = figure2_schedule()
        if attribute == "_total":
            schedule._total += 1
        else:
            schedule._slots_of[(1, 0)].pop()
        with pytest.raises(ScheduleError):
            schedule.check_consistent()

    def test_render_matches_figure2_layout(self):
        text = figure2_schedule().render()
        assert "Slot 1: 1->3  2->1  3->2" in text
        assert "Slot 2: 1->4  2->1  3->2  4->3" in text
        assert "Slot 3: 1->2  3->4  4->1" in text


class TestTickQueries:
    """What ``AN2Switch`` asks every tick, without copies or scans."""

    def test_slot_view_is_the_live_map(self):
        schedule = figure2_schedule()
        view = schedule.slot_view(1)
        assert view == schedule.slot_assignments(1)
        schedule.clear(1, 3)
        assert 3 not in view and 3 in figure2_schedule().slot_view(1)

    def test_next_slot_wraps_round_the_frame(self):
        schedule = figure2_schedule()  # 2->1 (0-based 1->0) in slots 0, 1
        assert schedule.next_slot(1, 0) == 0
        assert schedule.next_slot(1, 0, 1) == 1
        assert schedule.next_slot(1, 0, 2) == 0  # wrapped
        assert schedule.next_slot(3, 0, 0) == 2
        assert schedule.next_slot(0, 0) is None  # no such reservation

    def test_indexes_follow_every_primitive(self):
        """Random place / clear / move (the Slepian-Duguid primitive)
        against a scan of the slot maps, consistency checked throughout."""
        import random

        rng = random.Random(7)
        schedule = FrameSchedule(5, 12)
        for _ in range(600):
            slot, i, o = rng.randrange(12), rng.randrange(5), rng.randrange(5)
            try:
                action = rng.choice(["place", "place", "clear", "move"])
                if action == "place":
                    schedule.place(slot, i, o)
                elif action == "clear":
                    schedule.clear(slot, i)
                else:
                    schedule.move(slot, rng.randrange(12), i)
            except ScheduleError:
                pass  # occupied / free: failed primitives change nothing
            schedule.check_consistent()
            assert schedule.total_reserved() == len(
                list(schedule.reserved_pairs())
            )
            start = rng.randrange(12)
            scan = [
                (start + ahead) % 12 for ahead in range(12)
                if schedule.output_of((start + ahead) % 12, i) == o
            ]
            assert schedule.next_slot(i, o, start) == (
                scan[0] if scan else None
            )


def test_constructor_validation():
    with pytest.raises(ValueError):
        FrameSchedule(0, 4)
    with pytest.raises(ValueError):
        FrameSchedule(4, 0)
