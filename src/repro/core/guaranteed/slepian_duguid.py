"""Incremental schedule insertion via the Slepian-Duguid construction.

Section 4: "the Slepian-Duguid theorem implies that a schedule can be
found for any set of reservations that does not over-commit the bandwidth
of any link.  Moreover, the proof of the theorem provides an algorithm for
adding a cell to an existing schedule; the time required is linear in the
size of the switch and independent of frame size."

The algorithm, as the paper states it: to add a reservation from input P
to output Q, place it in a slot where both are free if one exists.
Otherwise there is a slot ``p`` where P is free and a slot ``q`` where Q
is free; add P->Q to ``p``, displacing the connection R->Q that conflicts
there into slot ``q``, whose own conflict (if any) moves back to ``p``,
and so on until no conflict remains -- at most N steps for an NxN switch,
so adding a k-cell reservation takes at most N*k steps.

Figure 3's worked example (adding 4->3 to the Figure 2 schedule) is
reproduced verbatim by ``tests/core/guaranteed/test_slepian_duguid.py``
and the E7 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.guaranteed.frames import FrameSchedule, ScheduleError

#: (from_slot, to_slot, input, output) -- one displaced reservation.
Move = Tuple[int, int, int, int]


@dataclass
class InsertionTrace:
    """What one cell's insertion did to the schedule.

    Attributes:
        input_port / output_port: the reservation added.
        placed_slot: the slot the new connection ended up in.
        moves: existing reservations displaced, in order.
        displacements: ``len(moves)``.
        steps: steps in the paper's Figure-3 counting -- the initial
            placement is step 1, and each subsequent *swap* (a pair of
            displacements between slots p and q, or a final unpaired
            displacement) is one more step.  Bounded by N (see E7).
    """

    input_port: int
    output_port: int
    placed_slot: int
    moves: List[Move] = field(default_factory=list)

    @property
    def displacements(self) -> int:
        return len(self.moves)

    @property
    def steps(self) -> int:
        return 1 + (len(self.moves) + 1) // 2


def insert_cell(
    schedule: FrameSchedule, input_port: int, output_port: int
) -> InsertionTrace:
    """Add a one-cell/frame reservation input_port -> output_port.

    Raises :class:`ScheduleError` if the reservation would over-commit the
    input or output link -- the check bandwidth central performs before
    ever asking a switch to revise its schedule.
    """
    if not schedule.admits(input_port, output_port):
        raise ScheduleError(
            f"reservation {input_port}->{output_port} would over-commit a link"
        )
    free = schedule.find_free_slot(input_port, output_port)
    if free is not None:
        schedule.place(free, input_port, output_port)
        return InsertionTrace(input_port, output_port, free)

    slot_p = schedule.find_input_free_slot(input_port)
    slot_q = schedule.find_output_free_slot(output_port)
    # Both exist because the reservation does not over-commit either link,
    # and they differ because no slot has both free.
    assert slot_p is not None and slot_q is not None and slot_p != slot_q

    moves: List[Move] = []
    # The connection currently holding output Q in slot p must be evicted
    # to make room for the new reservation.
    evicted_input = schedule.input_of(slot_p, output_port)
    assert evicted_input is not None
    schedule.clear(slot_p, evicted_input)
    schedule.place(slot_p, input_port, output_port)

    # Re-home the evicted connection, ping-ponging between q and p.
    pending: Optional[Tuple[int, int]] = (evicted_input, output_port)
    dest, other = slot_q, slot_p
    safety = 4 * schedule.n_ports + 4
    while pending is not None:
        if safety == 0:  # pragma: no cover - the theorem forbids this
            raise RuntimeError("Slepian-Duguid chain failed to terminate")
        safety -= 1
        move_input, move_output = pending
        conflict_output = schedule.output_of(dest, move_input)
        conflict_input = schedule.input_of(dest, move_output)
        # The chain construction guarantees at most one kind of conflict:
        # moving into q conflicts only on the input, into p only on the
        # output (the other side was vacated by the previous move).
        if conflict_output is not None:
            schedule.clear(dest, move_input)
            next_pending: Optional[Tuple[int, int]] = (
                move_input,
                conflict_output,
            )
        elif conflict_input is not None:
            schedule.clear(dest, conflict_input)
            next_pending = (conflict_input, move_output)
        else:
            next_pending = None
        schedule.place(dest, move_input, move_output)
        source = other  # the slot this connection was displaced from
        moves.append((source, dest, move_input, move_output))
        pending = next_pending
        dest, other = other, dest

    return InsertionTrace(input_port, output_port, slot_p, moves)


def insert_reservation(
    schedule: FrameSchedule, input_port: int, output_port: int, cells: int
) -> List[InsertionTrace]:
    """Add a ``cells``-per-frame reservation, one cell at a time.

    "Adding a reservation for k cells takes at most N x k steps."
    """
    if cells <= 0:
        raise ValueError(f"cells must be positive, got {cells}")
    if not schedule.admits(input_port, output_port, cells):
        raise ScheduleError(
            f"reservation {input_port}->{output_port} x{cells} would "
            "over-commit a link"
        )
    return [
        insert_cell(schedule, input_port, output_port) for _ in range(cells)
    ]


def remove_cell(
    schedule: FrameSchedule, input_port: int, output_port: int
) -> int:
    """Release one cell/frame of the reservation; returns its former slot.

    Used by circuit teardown and by the page-out extension (section 2).
    """
    slot = schedule.next_slot(input_port, output_port)  # the pair's first
    if slot is None:
        raise ScheduleError(
            f"no reservation {input_port}->{output_port} to remove"
        )
    schedule.clear(slot, input_port)
    return slot


def build_schedule(
    n_ports: int,
    n_slots: int,
    demand: List[List[int]],
) -> Tuple[FrameSchedule, int]:
    """Construct a schedule for a whole demand matrix from scratch.

    ``demand[i][o]`` is cells/frame from input ``i`` to output ``o``.  Any
    matrix whose row and column sums are all <= ``n_slots`` is admissible
    (the Slepian-Duguid theorem); this builds it incrementally and returns
    the schedule plus the total number of displacement moves performed.
    """
    schedule = FrameSchedule(n_ports, n_slots)
    total_moves = 0
    for input_port in range(n_ports):
        for output_port in range(n_ports):
            cells = demand[input_port][output_port]
            if cells:
                traces = insert_reservation(
                    schedule, input_port, output_port, cells
                )
                total_moves += sum(t.displacements for t in traces)
    return schedule, total_moves
