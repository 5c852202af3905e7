"""Frame schedules for guaranteed traffic.

"Bandwidth reservations are based on frames of 1024 cell slots...  the
switch creates a schedule for moving guaranteed traffic across the
crossbar, giving the required bandwidth to each virtual circuit"
(section 4).  A :class:`FrameSchedule` records, "for each slot and each
input, what output (if any) receives a cell from that input in that slot"
(Figure 2).

Invariants maintained at all times:

- in any slot, each input transmits to at most one output and each output
  receives from at most one input (the crossbar constraint),
- per-input and per-output totals never exceed the frame size (no link
  over-commitment).

Insertion that *preserves feasibility for any admissible demand* is the
job of :mod:`repro.core.guaranteed.slepian_duguid`; this module provides
the schedule data structure, its invariant checks, and direct placement
primitives.

A schedule stores only the slots that hold a reservation: every switch
has a frame, most never reserve a slot of it, and a frame of a million
slots costs nothing until one is used.  A slot with no reservation reads
as one shared, read-only empty map.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.constants import FRAME_SLOTS


class ScheduleError(Exception):
    """Violation of the crossbar or capacity constraints."""


#: What every slot without a reservation reads as.
_NO_RESERVATIONS: Mapping[int, int] = MappingProxyType({})


class FrameSchedule:
    """A frame's worth of reserved crossbar connections."""

    def __init__(self, n_ports: int, n_slots: int = FRAME_SLOTS) -> None:
        if n_ports <= 0:
            raise ValueError(f"n_ports must be positive, got {n_ports}")
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        self.n_ports = n_ports
        self.n_slots = n_slots
        # Per reserved slot: input -> output and output -> input.  A slot
        # is a key of both exactly while it holds a reservation.
        self._by_input: Dict[int, Dict[int, int]] = {}
        self._by_output: Dict[int, Dict[int, int]] = {}
        # Totals for admission checks: reservations per input / output.
        self._input_total: List[int] = [0] * n_ports
        self._output_total: List[int] = [0] * n_ports
        self._total = 0
        # (input, output) -> the slots reserved for the pair, ascending:
        # what :meth:`next_slot` bisects.
        self._slots_of: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def slot_assignments(self, slot: int) -> Dict[int, int]:
        """input -> output map for ``slot`` (a copy)."""
        return dict(self._by_input.get(slot, _NO_RESERVATIONS))

    def slot_view(self, slot: int) -> Mapping[int, int]:
        """:meth:`slot_assignments` without the copy, for the crossbar
        tick to read (never to change): the slot's live map, or the
        shared empty one when the slot holds no reservation.  Read it
        before the schedule changes again: a slot emptied and refilled
        gets a new map."""
        return self._by_input.get(slot, _NO_RESERVATIONS)

    def next_slot(
        self, input_port: int, output_port: int, start: int = 0
    ) -> Optional[int]:
        """The first slot at or after ``start`` reserved for ``input_port
        -> output_port``, wrapping round to the frame's first; ``None``
        when the pair holds no slot."""
        slots = self._slots_of.get((input_port, output_port))
        if not slots:
            return None
        index = bisect_left(slots, start)
        return slots[index] if index < len(slots) else slots[0]

    def output_of(self, slot: int, input_port: int) -> Optional[int]:
        return self._by_input.get(slot, _NO_RESERVATIONS).get(input_port)

    def input_of(self, slot: int, output_port: int) -> Optional[int]:
        return self._by_output.get(slot, _NO_RESERVATIONS).get(output_port)

    def input_free(self, slot: int, input_port: int) -> bool:
        return input_port not in self._by_input.get(slot, _NO_RESERVATIONS)

    def output_free(self, slot: int, output_port: int) -> bool:
        reverse = self._by_output.get(slot, _NO_RESERVATIONS)
        return output_port not in reverse

    def reservation_matrix(self) -> List[List[int]]:
        """R[i][o] = reserved cells/frame from input i to output o."""
        matrix = [[0] * self.n_ports for _ in range(self.n_ports)]
        for assignments in self._by_input.values():
            for input_port, output_port in assignments.items():
                matrix[input_port][output_port] += 1
        return matrix

    def reserved_pairs(self) -> Iterator[Tuple[int, int, int]]:
        """Yields (slot, input, output) for every reserved connection,
        in slot order."""
        for slot, assignments in sorted(self._by_input.items()):
            for input_port, output_port in sorted(assignments.items()):
                yield (slot, input_port, output_port)

    def total_reserved(self) -> int:
        return self._total

    def slots_used(self) -> int:
        """Number of slots with at least one reservation."""
        return len(self._by_input)

    def admits(self, input_port: int, output_port: int, cells: int = 1) -> bool:
        """Would adding ``cells`` reservations over-commit either link?"""
        return (
            self._input_total[input_port] + cells <= self.n_slots
            and self._output_total[output_port] + cells <= self.n_slots
        )

    # ------------------------------------------------------------------
    # placement primitives
    # ------------------------------------------------------------------
    def place(self, slot: int, input_port: int, output_port: int) -> None:
        """Reserve (input -> output) in ``slot``; both must be free."""
        self._check_ports(input_port, output_port)
        if not 0 <= slot < self.n_slots:
            raise ScheduleError(f"slot {slot} out of range")
        assignments = self._by_input.get(slot)
        if assignments is None:
            self._by_input[slot] = {input_port: output_port}
            self._by_output[slot] = {output_port: input_port}
        else:
            if input_port in assignments:
                raise ScheduleError(
                    f"slot {slot}: input {input_port} already transmits to "
                    f"{assignments[input_port]}"
                )
            reverse = self._by_output[slot]
            if output_port in reverse:
                raise ScheduleError(
                    f"slot {slot}: output {output_port} already receives "
                    f"from {reverse[output_port]}"
                )
            assignments[input_port] = output_port
            reverse[output_port] = input_port
        self._input_total[input_port] += 1
        self._output_total[output_port] += 1
        self._total += 1
        insort(self._slots_of.setdefault((input_port, output_port), []), slot)

    def clear(self, slot: int, input_port: int) -> Tuple[int, int]:
        """Remove the reservation of ``input_port`` in ``slot``.

        Returns the removed (input, output) pair.
        """
        assignments = self._by_input.get(slot, _NO_RESERVATIONS)
        if input_port not in assignments:
            raise ScheduleError(f"slot {slot}: input {input_port} is free")
        output_port = assignments.pop(input_port)
        del self._by_output[slot][output_port]
        if not assignments:
            del self._by_input[slot], self._by_output[slot]
        self._input_total[input_port] -= 1
        self._output_total[output_port] -= 1
        self._total -= 1
        slots = self._slots_of[(input_port, output_port)]
        del slots[bisect_left(slots, slot)]
        if not slots:
            del self._slots_of[(input_port, output_port)]
        return (input_port, output_port)

    def move(self, from_slot: int, to_slot: int, input_port: int) -> None:
        """Move one reservation between slots (destination must be free)."""
        _, output_port = self.clear(from_slot, input_port)
        try:
            self.place(to_slot, input_port, output_port)
        except ScheduleError:
            # Restore before propagating, so failed moves are atomic.
            self.place(from_slot, input_port, output_port)
            raise

    def find_free_slot(
        self, input_port: int, output_port: int
    ) -> Optional[int]:
        """A slot where both ports are free, or ``None``."""
        for slot in range(self.n_slots):
            if self.input_free(slot, input_port) and self.output_free(
                slot, output_port
            ):
                return slot
        return None

    def find_input_free_slot(self, input_port: int) -> Optional[int]:
        for slot in range(self.n_slots):
            if self.input_free(slot, input_port):
                return slot
        return None

    def find_output_free_slot(self, output_port: int) -> Optional[int]:
        for slot in range(self.n_slots):
            if self.output_free(slot, output_port):
                return slot
        return None

    # ------------------------------------------------------------------
    def check_consistent(self) -> None:
        """Verify every invariant; raises :class:`ScheduleError` on breakage.

        Used by tests and the property-based suite after every mutation
        sequence.
        """
        input_totals = [0] * self.n_ports
        output_totals = [0] * self.n_ports
        slots_of: Dict[Tuple[int, int], List[int]] = {}
        if self._by_input.keys() != self._by_output.keys():
            raise ScheduleError("slot maps disagree on the reserved slots")
        for slot, by_input in sorted(self._by_input.items()):
            by_output = self._by_output[slot]
            if not 0 <= slot < self.n_slots:
                raise ScheduleError(f"slot {slot} out of range")
            if not by_input:
                raise ScheduleError(f"slot {slot}: empty map kept")
            if len(by_input) != len(by_output):
                raise ScheduleError(f"slot {slot}: map size mismatch")
            for input_port, output_port in by_input.items():
                if by_output.get(output_port) != input_port:
                    raise ScheduleError(
                        f"slot {slot}: reverse map broken at "
                        f"{input_port}->{output_port}"
                    )
                input_totals[input_port] += 1
                output_totals[output_port] += 1
                slots_of.setdefault((input_port, output_port), []).append(slot)
        if input_totals != self._input_total:
            raise ScheduleError("input totals out of sync")
        if output_totals != self._output_total:
            raise ScheduleError("output totals out of sync")
        if sum(input_totals) != self._total:
            raise ScheduleError("running total out of sync")
        if slots_of != self._slots_of:
            raise ScheduleError("per-pair slot index out of sync")
        for port in range(self.n_ports):
            if input_totals[port] > self.n_slots:
                raise ScheduleError(f"input {port} over-committed")
            if output_totals[port] > self.n_slots:
                raise ScheduleError(f"output {port} over-committed")

    def _check_ports(self, input_port: int, output_port: int) -> None:
        if not 0 <= input_port < self.n_ports:
            raise ScheduleError(f"input {input_port} out of range")
        if not 0 <= output_port < self.n_ports:
            raise ScheduleError(f"output {output_port} out of range")

    def copy(self) -> "FrameSchedule":
        duplicate = FrameSchedule(self.n_ports, self.n_slots)
        for slot, input_port, output_port in self.reserved_pairs():
            duplicate.place(slot, input_port, output_port)
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FrameSchedule {self.n_ports} ports x {self.n_slots} slots, "
            f"{self.total_reserved()} reserved>"
        )


def figure2_schedule() -> FrameSchedule:
    """The paper's Figure 2 schedule (4 ports, 3 slots, 1-based in the
    paper, 0-based here).

    Reservations (cells/frame)::

               out1 out2 out3 out4
        in1      .    1    1    1
        in2      2    .    .    .
        in3      .    2    .    1
        in4      1    .    1    .

    Schedule::

        Slot 1:  1->3  2->1  3->2
        Slot 2:  1->4  2->1  3->2  4->3
        Slot 3:  1->2  3->4  4->1

    Note the matrix in the paper reserves one cell for 4->3 which appears
    in slot 2; Figure 3 then *adds another* 4->3 reservation to show the
    insertion algorithm.  This function returns the schedule exactly as
    printed in Figure 2.
    """
    schedule = FrameSchedule(n_ports=4, n_slots=3)
    for slot, pairs in enumerate(
        [
            [(1, 3), (2, 1), (3, 2)],
            [(1, 4), (2, 1), (3, 2), (4, 3)],
            [(1, 2), (3, 4), (4, 1)],
        ]
    ):
        for input_port, output_port in pairs:
            schedule.place(slot, input_port - 1, output_port - 1)
    return schedule


def figure3_initial_schedule() -> FrameSchedule:
    """The two-row sub-schedule Figure 3 starts from (slots p and q).

    Figure 3 operates on slots 1 (p) and 3 (q) of Figure 2::

        p:  1->3  2->1  3->2
        q:  1->2  3->4  4->1
    """
    schedule = FrameSchedule(n_ports=4, n_slots=2)
    for slot, pairs in enumerate(
        [
            [(1, 3), (2, 1), (3, 2)],
            [(1, 2), (3, 4), (4, 1)],
        ]
    ):
        for input_port, output_port in pairs:
            schedule.place(slot, input_port - 1, output_port - 1)
    return schedule
