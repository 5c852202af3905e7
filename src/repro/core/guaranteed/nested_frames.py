"""Nested frames: fine-grained allocation with tight jitter.

Section 4: "One area to be explored is greater flexibility in frame size.
Large frames are attractive because they provide a fine-grained
allocation unit, but small frames yield better latency and jitter bounds.
Nested frames could provide the benefits of both.  For example,
allocation could be based on 1024-slot frames, with cell re-ordering
restricted to 128-slot units.  Such a change would require a more
sophisticated algorithm for building frame schedules."

A :class:`NestedFrameSchedule` allocates in cells per *outer* frame (1024
slots) but builds an independent Slepian-Duguid schedule per *subframe*
(128 slots), splitting each reservation as evenly as possible across the
subframes.  Cells then never wait longer than ~2 subframe times per
switch instead of ~2 frame times, while the allocation granularity stays
1/1024 of the link.

The cost is admissibility: a demand matrix is nested-schedulable only if
its per-subframe *shares* fit, and the even split rounds each reservation
up to at least one slot per subframe it touches -- so many tiny
reservations can exhaust a subframe that the flat frame would have
admitted (ceil(k/subframes) summed over a row can exceed the subframe
size even when the row sum fits the outer frame).  :meth:`admits` checks
the real per-subframe constraint before any state changes; this loss of
admission region is part of what makes the paper call for "a more
sophisticated algorithm for building frame schedules".
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.constants import FRAME_SLOTS, NESTED_FRAME_SLOTS
from repro.core.guaranteed.frames import FrameSchedule, ScheduleError
from repro.core.guaranteed.slepian_duguid import insert_cell, remove_cell


class NestedFrameSchedule:
    """An outer frame of evenly-loaded Slepian-Duguid subframes."""

    def __init__(
        self,
        n_ports: int,
        frame_slots: int = FRAME_SLOTS,
        subframe_slots: int = NESTED_FRAME_SLOTS,
    ) -> None:
        if frame_slots % subframe_slots != 0:
            raise ValueError(
                f"subframe ({subframe_slots}) must divide frame "
                f"({frame_slots})"
            )
        self.n_ports = n_ports
        self.frame_slots = frame_slots
        self.subframe_slots = subframe_slots
        self.n_subframes = frame_slots // subframe_slots
        self.subframes: List[FrameSchedule] = [
            FrameSchedule(n_ports, subframe_slots)
            for _ in range(self.n_subframes)
        ]
        #: reservation ledger: (input, output) -> cells per outer frame.
        self._reservations: Dict[Tuple[int, int], int] = {}
        self._total = 0

    # ------------------------------------------------------------------
    def _shares(self, cells: int) -> List[int]:
        """Split ``cells`` across subframes as evenly as possible."""
        base, extra = divmod(cells, self.n_subframes)
        return [
            base + (1 if index < extra else 0)
            for index in range(self.n_subframes)
        ]

    def admits(self, input_port: int, output_port: int, cells: int) -> bool:
        shares = self._shares(cells)
        return all(
            share == 0 or subframe.admits(input_port, output_port, share)
            for share, subframe in zip(shares, self.subframes)
        )

    def reserve(self, input_port: int, output_port: int, cells: int) -> int:
        """Add a reservation; returns total displacement moves."""
        if cells <= 0:
            raise ValueError(f"cells must be positive, got {cells}")
        if not self.admits(input_port, output_port, cells):
            raise ScheduleError(
                f"nested schedule cannot admit {input_port}->{output_port} "
                f"x{cells}"
            )
        moves = 0
        for share, subframe in zip(self._shares(cells), self.subframes):
            for _ in range(share):
                trace = insert_cell(subframe, input_port, output_port)
                moves += trace.displacements
        key = (input_port, output_port)
        self._reservations[key] = self._reservations.get(key, 0) + cells
        self._total += cells
        return moves

    def release(self, input_port: int, output_port: int, cells: int) -> None:
        key = (input_port, output_port)
        if self._reservations.get(key, 0) < cells:
            raise ScheduleError(f"releasing more than reserved on {key}")
        for share, subframe in zip(self._shares(cells), self.subframes):
            for _ in range(share):
                remove_cell(subframe, input_port, output_port)
        self._reservations[key] -= cells
        self._total -= cells
        if self._reservations[key] == 0:
            del self._reservations[key]

    # ------------------------------------------------------------------
    def slot_assignments(self, slot: int) -> Dict[int, int]:
        """The (input -> output) reservations of an outer-frame slot."""
        if not 0 <= slot < self.frame_slots:
            raise ValueError(f"slot {slot} out of range")
        subframe_index, offset = divmod(slot, self.subframe_slots)
        return self.subframes[subframe_index].slot_assignments(offset)

    def slot_view(self, slot: int) -> Mapping[int, int]:
        """:meth:`slot_assignments` without the range check or the copy
        (see :meth:`FrameSchedule.slot_view`)."""
        subframe_index, offset = divmod(slot, self.subframe_slots)
        return self.subframes[subframe_index].slot_view(offset)

    def next_slot(
        self, input_port: int, output_port: int, start: int = 0
    ) -> Optional[int]:
        """The first outer-frame slot at or after ``start`` reserved for
        ``input_port -> output_port``, wrapping round; ``None`` when the
        pair holds no slot."""
        first, offset = divmod(start, self.subframe_slots)
        # The starting subframe comes up twice: from ``offset`` on, and
        # (last) for the slots before it that the wrap reaches.
        for step in range(self.n_subframes + 1):
            index = (first + step) % self.n_subframes
            found = self.subframes[index].next_slot(
                input_port, output_port, offset
            )
            if found is not None and found >= offset:
                return index * self.subframe_slots + found
            offset = 0
        return None

    def total_reserved(self) -> int:
        return self._total

    def max_gap_slots(self, input_port: int, output_port: int) -> int:
        """Largest gap (in slots) between consecutive service slots of a
        reservation over one cyclic outer frame -- the jitter metric the
        nested-frame ablation reports."""
        slots = [
            slot
            for slot in range(self.frame_slots)
            if self.slot_assignments(slot).get(input_port) == output_port
        ]
        if not slots:
            raise ScheduleError(
                f"no reservation {input_port}->{output_port}"
            )
        if len(slots) == 1:
            return self.frame_slots
        gaps = [
            slots[i + 1] - slots[i] for i in range(len(slots) - 1)
        ]
        gaps.append(self.frame_slots - slots[-1] + slots[0])
        return max(gaps)

    def check_consistent(self) -> None:
        for subframe in self.subframes:
            subframe.check_consistent()
        totals: Dict[Tuple[int, int], int] = {}
        for subframe in self.subframes:
            for _, input_port, output_port in subframe.reserved_pairs():
                key = (input_port, output_port)
                totals[key] = totals.get(key, 0) + 1
        if totals != self._reservations:
            raise ScheduleError("reservation ledger out of sync")
        if sum(totals.values()) != self._total:
            raise ScheduleError("running total out of sync")
