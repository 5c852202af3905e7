"""Tests for the nested-frame extension (section 4)."""

import random

import pytest

from repro.core.guaranteed.frames import FrameSchedule, ScheduleError
from repro.core.guaranteed.nested_frames import NestedFrameSchedule
from repro.core.guaranteed.slepian_duguid import insert_reservation


def test_shares_split_evenly():
    nested = NestedFrameSchedule(4, frame_slots=64, subframe_slots=8)
    assert nested._shares(8) == [1] * 8
    assert nested._shares(10) == [2, 2, 1, 1, 1, 1, 1, 1]
    assert nested._shares(3) == [1, 1, 1, 0, 0, 0, 0, 0]


def test_reserve_and_release_roundtrip():
    nested = NestedFrameSchedule(4, frame_slots=64, subframe_slots=8)
    nested.reserve(0, 1, 10)
    nested.check_consistent()
    assert nested.total_reserved() == 10
    nested.release(0, 1, 10)
    assert nested.total_reserved() == 0
    nested.check_consistent()


def test_release_more_than_reserved_rejected():
    nested = NestedFrameSchedule(4, frame_slots=64, subframe_slots=8)
    nested.reserve(0, 1, 4)
    with pytest.raises(ScheduleError):
        nested.release(0, 1, 5)


def test_subframe_must_divide_frame():
    with pytest.raises(ValueError):
        NestedFrameSchedule(4, frame_slots=100, subframe_slots=7)


def test_slot_assignments_delegate_to_subframes():
    nested = NestedFrameSchedule(4, frame_slots=16, subframe_slots=4)
    nested.reserve(2, 3, 4)  # one per subframe
    served = [
        slot
        for slot in range(16)
        if nested.slot_assignments(slot).get(2) == 3
    ]
    assert len(served) == 4
    # One service in each 4-slot subframe.
    assert sorted(slot // 4 for slot in served) == [0, 1, 2, 3]


def test_jitter_gap_improves_on_flat_frame():
    """The extension's selling point: the worst service gap shrinks from
    ~frame to ~subframe for multi-cell reservations."""
    nested = NestedFrameSchedule(4, frame_slots=64, subframe_slots=8)
    nested.reserve(0, 1, 8)
    assert nested.max_gap_slots(0, 1) <= 2 * 8  # about a subframe

    flat = FrameSchedule(4, 64)
    insert_reservation(flat, 0, 1, 8)
    # Slepian-Duguid packs the flat frame's cells into the first slots,
    # leaving a worst-case gap of nearly the whole frame.
    slots = [
        s for s in range(64) if flat.output_of(s, 0) == 1
    ]
    gaps = [b - a for a, b in zip(slots, slots[1:])]
    gaps.append(64 - slots[-1] + slots[0])
    assert max(gaps) > 2 * 8


def test_admits_accounts_for_subframe_capacity():
    nested = NestedFrameSchedule(2, frame_slots=8, subframe_slots=2)
    nested.reserve(0, 0, 8)  # input 0 completely full
    assert not nested.admits(0, 1, 1)
    assert nested.admits(1, 1, 8)


def test_block_full_load_admissible():
    """Full load made of large per-pair reservations splits evenly into
    the subframes and schedules completely."""
    n, frame, sub = 4, 32, 8
    nested = NestedFrameSchedule(n, frame_slots=frame, subframe_slots=sub)
    # A permutation matrix scaled to the full frame: 4 reservations of 32.
    for i in range(n):
        nested.reserve(i, (i + 1) % n, frame)
    nested.check_consistent()
    assert nested.total_reserved() == frame * n


def test_fragmented_full_load_can_be_inadmissible():
    """The cost of nesting: many small reservations round up to one slot
    per subframe each, so a row of tiny reservations can exhaust a
    subframe even though the flat frame would admit it.  ``admits`` must
    detect this rather than corrupt the schedule."""
    n, frame, sub = 8, 64, 8
    nested = NestedFrameSchedule(n, frame_slots=frame, subframe_slots=sub)
    # 8 reservations of 9 cells each from input 0: flat row sum 72 > 64
    # would be inadmissible anyway, so use 8 x 8 = 64 (flat-admissible).
    # Each 8-cell reservation takes exactly one slot per subframe: 8 VCs
    # x 1 slot = 8 slots per subframe -- exactly full, still admissible.
    for o in range(8):
        assert nested.admits(0, o, 8)
        nested.reserve(0, o, 8)
    nested.check_consistent()
    # But a 9-cell reservation (ceil 9/8 = 2 in some subframe) from a
    # fresh input to a fresh... all outputs loaded; verify admits says no
    # without corrupting state.
    assert not nested.admits(0, 0, 1)
    before = nested.total_reserved()
    with pytest.raises(ScheduleError):
        nested.reserve(0, 0, 1)
    assert nested.total_reserved() == before
    nested.check_consistent()


def test_max_gap_requires_reservation():
    nested = NestedFrameSchedule(4, frame_slots=16, subframe_slots=4)
    with pytest.raises(ScheduleError):
        nested.max_gap_slots(0, 1)


def test_reserve_validation():
    nested = NestedFrameSchedule(4, frame_slots=16, subframe_slots=4)
    with pytest.raises(ValueError):
        nested.reserve(0, 1, 0)
    nested.reserve(0, 1, 16)
    with pytest.raises(ScheduleError):
        nested.reserve(0, 2, 1)


def test_tick_queries_match_a_scan_of_the_outer_frame():
    """``next_slot`` / ``slot_view`` / the running total against
    ``slot_assignments`` over a nested schedule under reserve/release
    churn -- subframe boundaries and the wrap included."""
    rng = random.Random(3)
    nested = NestedFrameSchedule(4, frame_slots=32, subframe_slots=8)
    held = []
    for _ in range(120):
        if held and rng.random() < 0.4:
            nested.release(*held.pop(rng.randrange(len(held))))
        else:
            i, o, cells = rng.randrange(4), rng.randrange(4), rng.randint(1, 9)
            if nested.admits(i, o, cells):
                nested.reserve(i, o, cells)
                held.append((i, o, cells))
        nested.check_consistent()
        assert nested.total_reserved() == sum(cells for _, _, cells in held)
        for i in range(4):
            for o in range(4):
                start = rng.randrange(32)
                scan = [
                    (start + ahead) % 32 for ahead in range(32)
                    if nested.slot_assignments(
                        (start + ahead) % 32
                    ).get(i) == o
                ]
                assert nested.next_slot(i, o, start) == (
                    scan[0] if scan else None
                ), (i, o, start)
        slot = rng.randrange(32)
        assert nested.slot_view(slot) == nested.slot_assignments(slot)
    assert held  # the churn left reservations to look for
    nested._total += 1
    with pytest.raises(ScheduleError):
        nested.check_consistent()
