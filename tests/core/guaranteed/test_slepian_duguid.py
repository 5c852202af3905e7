"""Tests for Slepian-Duguid insertion, including the Figure 3 trace."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guaranteed.frames import (
    FrameSchedule,
    ScheduleError,
    figure2_schedule,
    figure3_initial_schedule,
)
from repro.core.guaranteed.slepian_duguid import (
    build_schedule,
    insert_cell,
    insert_reservation,
    remove_cell,
)


def random_admissible_matrix(n, slots, rng, density=200):
    matrix = [[0] * n for _ in range(n)]
    rows, cols = [0] * n, [0] * n
    for _ in range(density):
        i, o = rng.randrange(n), rng.randrange(n)
        k = min(rng.randint(1, 3), slots - rows[i], slots - cols[o])
        if k > 0:
            matrix[i][o] += k
            rows[i] += k
            cols[o] += k
    return matrix


class TestFigure3:
    def test_exact_trace(self):
        """Reproduce Figure 3: adding 4->3 to the p/q sub-schedule takes
        three steps and lands exactly on the paper's final arrangement."""
        schedule = figure3_initial_schedule()
        trace = insert_cell(schedule, 3, 2)  # 4->3, zero-based
        assert trace.placed_slot == 0  # slot p
        assert trace.steps == 3
        assert trace.displacements == 4
        # Final schedule from the figure (0-based):
        assert schedule.slot_assignments(0) == {0: 1, 1: 0, 2: 3, 3: 2}
        assert schedule.slot_assignments(1) == {0: 2, 2: 1, 3: 0}
        schedule.check_consistent()

    def test_displacement_chain_order(self):
        schedule = figure3_initial_schedule()
        trace = insert_cell(schedule, 3, 2)
        # First the conflicting 1->3 moves p->q, then 1->2 moves q->p,
        # then 3->2 moves p->q, then 3->4 moves q->p.
        assert trace.moves == [
            (0, 1, 0, 2),
            (1, 0, 0, 1),
            (0, 1, 2, 1),
            (1, 0, 2, 3),
        ]

    def test_full_figure2_insertion(self):
        schedule = figure2_schedule()
        trace = insert_cell(schedule, 3, 2)
        schedule.check_consistent()
        matrix = schedule.reservation_matrix()
        assert matrix[3][2] == 2  # the original 4->3 plus the new one


class TestInsertion:
    def test_free_slot_used_directly(self):
        schedule = FrameSchedule(4, 4)
        trace = insert_cell(schedule, 0, 0)
        assert trace.displacements == 0
        assert trace.steps == 1

    def test_overcommit_rejected(self):
        schedule = FrameSchedule(2, 1)
        insert_cell(schedule, 0, 0)
        with pytest.raises(ScheduleError):
            insert_cell(schedule, 0, 1)  # input 0 already full

    def test_insert_reservation_counts(self):
        schedule = FrameSchedule(4, 8)
        traces = insert_reservation(schedule, 1, 2, 5)
        assert len(traces) == 5
        assert schedule.reservation_matrix()[1][2] == 5

    def test_insert_reservation_validation(self):
        schedule = FrameSchedule(4, 2)
        with pytest.raises(ValueError):
            insert_reservation(schedule, 0, 0, 0)
        with pytest.raises(ScheduleError):
            insert_reservation(schedule, 0, 0, 3)

    def test_remove_cell_inverse(self):
        schedule = FrameSchedule(4, 4)
        insert_cell(schedule, 1, 2)
        slot = remove_cell(schedule, 1, 2)
        assert 0 <= slot < 4
        assert schedule.total_reserved() == 0
        with pytest.raises(ScheduleError):
            remove_cell(schedule, 1, 2)


class TestTheorem:
    """The Slepian-Duguid theorem: every admissible matrix schedules."""

    @pytest.mark.parametrize("n,slots", [(4, 4), (8, 16), (16, 32)])
    def test_full_load_matrices_schedule(self, n, slots):
        """A doubly-'stochastic' integer matrix at 100% load fits exactly."""
        rng = random.Random(n * slots)
        # Build full-load matrix as a sum of `slots` random permutations.
        matrix = [[0] * n for _ in range(n)]
        for _ in range(slots):
            perm = list(range(n))
            rng.shuffle(perm)
            for i, o in enumerate(perm):
                matrix[i][o] += 1
        schedule, _ = build_schedule(n, slots, matrix)
        schedule.check_consistent()
        assert schedule.reservation_matrix() == matrix
        assert all(sum(row) == slots for row in schedule.reservation_matrix())

    def test_displacements_bounded_by_2n(self):
        """Each insertion's chain touches each input at most twice."""
        rng = random.Random(99)
        n, slots = 8, 16
        for _ in range(20):
            matrix = random_admissible_matrix(n, slots, rng)
            schedule = FrameSchedule(n, slots)
            for i in range(n):
                for o in range(n):
                    for _ in range(matrix[i][o]):
                        trace = insert_cell(schedule, i, o)
                        assert trace.displacements <= 2 * n
                        assert trace.steps <= n + 1
            schedule.check_consistent()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([2, 4, 8]),
    slots=st.sampled_from([2, 8, 32]),
)
def test_random_admissible_matrices_schedule(seed, n, slots):
    rng = random.Random(seed)
    matrix = random_admissible_matrix(n, slots, rng)
    schedule, _ = build_schedule(n, slots, matrix)
    schedule.check_consistent()
    assert schedule.reservation_matrix() == matrix


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_insert_remove_roundtrip(seed):
    rng = random.Random(seed)
    schedule = FrameSchedule(4, 8)
    live = []
    for _ in range(40):
        if live and rng.random() < 0.4:
            i, o = live.pop(rng.randrange(len(live)))
            remove_cell(schedule, i, o)
        else:
            i, o = rng.randrange(4), rng.randrange(4)
            if schedule.admits(i, o):
                insert_cell(schedule, i, o)
                live.append((i, o))
        schedule.check_consistent()
    assert schedule.total_reserved() == len(live)
