"""The sparse frame schedule against a dense reference.

:class:`FrameSchedule` keeps a per-slot map only for slots that hold a
reservation.  The reference below is the plain rendering of Figure 2 --
an input -> output map for every slot of the frame, every index found
by scanning -- and the two must agree after any sequence of the
placement primitives and of the Slepian-Duguid insertions and removals
built on them: same slot contents, same matrix, same pair order, same
``next_slot`` answers, same totals, same failures.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guaranteed.frames import FrameSchedule, ScheduleError
from repro.core.guaranteed.slepian_duguid import (
    insert_reservation,
    remove_cell,
)


class DenseSchedule:
    """Every slot holds its own two maps, reserved or not; no index."""

    def __init__(self, n_ports: int, n_slots: int) -> None:
        self.n_ports = n_ports
        self.n_slots = n_slots
        self.by_input: List[Dict[int, int]] = [{} for _ in range(n_slots)]
        self.by_output: List[Dict[int, int]] = [{} for _ in range(n_slots)]

    def slot_assignments(self, slot: int) -> Dict[int, int]:
        return dict(self.by_input[slot])

    def output_of(self, slot: int, input_port: int) -> Optional[int]:
        return self.by_input[slot].get(input_port)

    def input_of(self, slot: int, output_port: int) -> Optional[int]:
        return self.by_output[slot].get(output_port)

    def input_load(self, input_port: int) -> int:
        return sum(input_port in slot for slot in self.by_input)

    def output_load(self, output_port: int) -> int:
        return sum(output_port in slot for slot in self.by_output)

    def total_reserved(self) -> int:
        return sum(len(slot) for slot in self.by_input)

    def slots_used(self) -> int:
        return sum(1 for slot in self.by_input if slot)

    def admits(self, input_port: int, output_port: int, cells: int = 1) -> bool:
        return (
            self.input_load(input_port) + cells <= self.n_slots
            and self.output_load(output_port) + cells <= self.n_slots
        )

    def reservation_matrix(self) -> List[List[int]]:
        matrix = [[0] * self.n_ports for _ in range(self.n_ports)]
        for slot in self.by_input:
            for input_port, output_port in slot.items():
                matrix[input_port][output_port] += 1
        return matrix

    def reserved_pairs(self):
        for slot, assignments in enumerate(self.by_input):
            for input_port, output_port in sorted(assignments.items()):
                yield (slot, input_port, output_port)

    def next_slot(
        self, input_port: int, output_port: int, start: int = 0
    ) -> Optional[int]:
        for ahead in range(self.n_slots):
            slot = (start + ahead) % self.n_slots
            if self.by_input[slot].get(input_port) == output_port:
                return slot
        return None

    def find_free_slot(self, input_port: int, output_port: int):
        for slot in range(self.n_slots):
            if (
                input_port not in self.by_input[slot]
                and output_port not in self.by_output[slot]
            ):
                return slot
        return None

    def find_input_free_slot(self, input_port: int):
        for slot in range(self.n_slots):
            if input_port not in self.by_input[slot]:
                return slot
        return None

    def find_output_free_slot(self, output_port: int):
        for slot in range(self.n_slots):
            if output_port not in self.by_output[slot]:
                return slot
        return None

    def place(self, slot: int, input_port: int, output_port: int) -> None:
        if not (
            0 <= input_port < self.n_ports and 0 <= output_port < self.n_ports
        ):
            raise ScheduleError("port out of range")
        if not 0 <= slot < self.n_slots:
            raise ScheduleError("slot out of range")
        if input_port in self.by_input[slot]:
            raise ScheduleError("input busy")
        if output_port in self.by_output[slot]:
            raise ScheduleError("output busy")
        self.by_input[slot][input_port] = output_port
        self.by_output[slot][output_port] = input_port

    def clear(self, slot: int, input_port: int):
        if input_port not in self.by_input[slot]:
            raise ScheduleError("input free")
        output_port = self.by_input[slot].pop(input_port)
        del self.by_output[slot][output_port]
        return (input_port, output_port)

    def move(self, from_slot: int, to_slot: int, input_port: int) -> None:
        _, output_port = self.clear(from_slot, input_port)
        try:
            self.place(to_slot, input_port, output_port)
        except ScheduleError:
            self.place(from_slot, input_port, output_port)
            raise


def apply(schedule, op):
    """Run one operation; its result, or the failure's type."""
    name, slot, other_slot, input_port, output_port, cells = op
    try:
        if name == "place":
            return schedule.place(slot, input_port, output_port)
        if name == "clear":
            return schedule.clear(slot, input_port)
        if name == "move":
            return schedule.move(slot, other_slot, input_port)
        if name == "insert_reservation":
            return [
                (trace.placed_slot, trace.moves)
                for trace in insert_reservation(
                    schedule, input_port, output_port, cells
                )
            ]
        return remove_cell(schedule, input_port, output_port)
    except ScheduleError:
        return ScheduleError


def assert_same(sparse: FrameSchedule, dense: DenseSchedule) -> None:
    sparse.check_consistent()
    for slot in range(sparse.n_slots):
        assert sparse.slot_assignments(slot) == dense.slot_assignments(slot)
        assert dict(sparse.slot_view(slot)) == dense.slot_assignments(slot)
    assert sparse.reservation_matrix() == dense.reservation_matrix()
    assert list(sparse.reserved_pairs()) == list(dense.reserved_pairs())
    assert sparse.total_reserved() == dense.total_reserved()
    assert sparse.slots_used() == dense.slots_used()
    for port in range(sparse.n_ports):
        assert sparse._input_total[port] == dense.input_load(port)
        assert sparse._output_total[port] == dense.output_load(port)
    for input_port in range(sparse.n_ports):
        for output_port in range(sparse.n_ports):
            for start in range(sparse.n_slots):
                assert sparse.next_slot(
                    input_port, output_port, start
                ) == dense.next_slot(input_port, output_port, start)


@st.composite
def runs(draw):
    n_ports = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 6))
    port = st.integers(0, n_ports - 1)
    slot = st.integers(0, n_slots - 1)
    op = st.tuples(
        st.sampled_from(
            ["place", "place", "clear", "move", "insert_reservation",
             "remove_cell"]
        ),
        slot, slot, port, port, st.integers(1, 3),
    )
    return n_ports, n_slots, draw(st.lists(op, max_size=40))


@settings(max_examples=150, deadline=None)
@given(runs())
def test_sparse_schedule_matches_the_dense_reference(run):
    n_ports, n_slots, ops = run
    sparse = FrameSchedule(n_ports, n_slots)
    dense = DenseSchedule(n_ports, n_slots)
    for op in ops:
        assert apply(sparse, op) == apply(dense, op), op
        assert_same(sparse, dense)


class TestEmptySlots:
    def test_an_empty_slot_reads_as_one_shared_read_only_map(self):
        schedule = FrameSchedule(4, 8)
        view = schedule.slot_view(0)
        assert view == {} and schedule.slot_view(7) is view
        with pytest.raises(TypeError):
            view[0] = 1  # type: ignore[index]
        schedule.place(3, 0, 1)
        assert schedule.slot_view(3) == {0: 1}
        assert schedule.slot_view(0) is view and view == {}

    def test_emptied_slots_give_their_maps_back(self):
        schedule = FrameSchedule(4, 8)
        schedule.place(5, 0, 1)
        schedule.place(5, 1, 0)
        schedule.move(5, 2, 1)
        assert schedule.slots_used() == 2
        schedule.clear(5, 0)
        schedule.clear(2, 1)
        assert schedule.slots_used() == 0
        assert schedule.slot_view(5) is schedule.slot_view(2)
        schedule.check_consistent()

    def test_check_consistent_refuses_a_kept_empty_map(self):
        schedule = FrameSchedule(4, 8)
        schedule.place(5, 0, 1)
        schedule.slot_view(5).clear()  # type: ignore[attr-defined]
        schedule._by_output[5].clear()
        with pytest.raises(ScheduleError):
            schedule.check_consistent()
