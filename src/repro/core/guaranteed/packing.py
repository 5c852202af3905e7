"""Frame-schedule shaping for best-effort friendliness.

Section 4: "Best-effort cells can only be transmitted in slots where
neither their input nor their output is busy with reserved traffic.  Such
slots will be more frequent if reserved traffic is packed into a small
number of slots, leaving other slots completely free for best-effort
traffic.  Best-effort cells will also fare better if the unreserved slots
are distributed throughout the frame rather than grouped at one point.
Finding the best way to arrange the frame schedule is a matter for
further study."

Three arrangement policies:

- ``first_fit``: plain incremental Slepian-Duguid insertion (the
  baseline; reservations land wherever the chain puts them),
- ``packed``: fill slots front-to-back with *maximum* matchings of the
  remaining demand, minimising the number of slots touched by reserved
  traffic,
- ``packed_spread``: the packed schedule with its used slots re-spaced
  evenly across the frame (both of the paper's desiderata at once).

The E12 benchmark drives identical guaranteed + best-effort traffic over
all three and reports best-effort latency/throughput.
"""

from __future__ import annotations

from typing import List

from repro.core.guaranteed.frames import FrameSchedule, ScheduleError
from repro.core.guaranteed.slepian_duguid import build_schedule
from repro.core.matching.maximum import hopcroft_karp

Demand = List[List[int]]


def _check_demand(n_ports: int, n_slots: int, demand: Demand) -> None:
    if len(demand) != n_ports or any(len(row) != n_ports for row in demand):
        raise ValueError(f"demand must be {n_ports}x{n_ports}")
    for i in range(n_ports):
        if sum(demand[i]) > n_slots:
            raise ScheduleError(f"input {i} over-committed")
    for o in range(n_ports):
        if sum(demand[i][o] for i in range(n_ports)) > n_slots:
            raise ScheduleError(f"output {o} over-committed")


def first_fit_schedule(
    n_ports: int, n_slots: int, demand: Demand
) -> FrameSchedule:
    """Incremental Slepian-Duguid insertion in row-major demand order."""
    _check_demand(n_ports, n_slots, demand)
    schedule, _ = build_schedule(n_ports, n_slots, demand)
    return schedule


def max_line_load(demand: Demand) -> int:
    """The largest row or column sum: the optimal packed slot count."""
    n = len(demand)
    rows = [sum(demand[i]) for i in range(n)]
    cols = [sum(demand[i][o] for i in range(n)) for o in range(n)]
    return max(rows + cols) if n else 0


def packed_schedule(
    n_ports: int, n_slots: int, demand: Demand
) -> FrameSchedule:
    """Pack reservations into the *minimum* number of slots.

    The minimum is ``L = max(row/col sum)`` (Konig's edge-colouring
    theorem; also the heart of Slepian-Duguid).  Greedy maximum matchings
    alone do not achieve it, so we use the classic regularization trick:
    pad the demand with *filler* units until every row and column sums to
    exactly L.  The padded demand is an L-regular bipartite multigraph, so
    each of L rounds of Hopcroft-Karp finds a perfect matching; placing
    only the real (non-filler) edges of each round into one slot colours
    all real demand with exactly L slots.
    """
    _check_demand(n_ports, n_slots, demand)
    load = max_line_load(demand)
    if load == 0:
        return FrameSchedule(n_ports, n_slots)
    if load > n_slots:
        raise ScheduleError(f"demand needs {load} slots, frame has {n_slots}")
    real = [row[:] for row in demand]
    filler = [[0] * n_ports for _ in range(n_ports)]
    rows = [sum(real[i]) for i in range(n_ports)]
    cols = [sum(real[i][o] for i in range(n_ports)) for o in range(n_ports)]
    for i in range(n_ports):
        while rows[i] < load:
            for o in range(n_ports):
                if cols[o] < load:
                    amount = min(load - rows[i], load - cols[o])
                    filler[i][o] += amount
                    rows[i] += amount
                    cols[o] += amount
                    break
            else:  # pragma: no cover - deficits always balance
                raise ScheduleError("regularization failed")

    schedule = FrameSchedule(n_ports, n_slots)
    for slot in range(load):
        requests = [
            {
                o
                for o in range(n_ports)
                if real[i][o] > 0 or filler[i][o] > 0
            }
            for i in range(n_ports)
        ]
        matching = hopcroft_karp(n_ports, requests)
        if len(matching) != n_ports:  # pragma: no cover - regular graph
            raise ScheduleError("no perfect matching in regular padding")
        for input_port, output_port in matching.items():
            if real[input_port][output_port] > 0:
                real[input_port][output_port] -= 1
                schedule.place(slot, input_port, output_port)
            else:
                filler[input_port][output_port] -= 1
    return schedule


def spread_schedule(schedule: FrameSchedule) -> FrameSchedule:
    """Re-space a schedule's used slots evenly across the frame.

    Keeps each slot's matching intact (so the crossbar constraint is
    untouched) but moves slot k of the used ones to position
    ``round(k * n_slots / used)``.
    """
    used_slots = [
        slot
        for slot in range(schedule.n_slots)
        if schedule.slot_assignments(slot)
    ]
    spread = FrameSchedule(schedule.n_ports, schedule.n_slots)
    used = len(used_slots)
    if used == 0:
        return spread
    for index, slot in enumerate(used_slots):
        target = min(
            schedule.n_slots - 1, (index * schedule.n_slots) // used
        )
        for input_port, output_port in schedule.slot_assignments(slot).items():
            spread.place(target, input_port, output_port)
    return spread


def packed_spread_schedule(
    n_ports: int, n_slots: int, demand: Demand
) -> FrameSchedule:
    """Packed, then spread: the paper's two desiderata combined."""
    return spread_schedule(packed_schedule(n_ports, n_slots, demand))


def make_policy_schedule(
    policy: str, n_ports: int, n_slots: int, demand: Demand
) -> FrameSchedule:
    """Dispatch by policy name ("first_fit", "packed", "packed_spread")."""
    if policy == "first_fit":
        return first_fit_schedule(n_ports, n_slots, demand)
    if policy == "packed":
        return packed_schedule(n_ports, n_slots, demand)
    if policy == "packed_spread":
        return packed_spread_schedule(n_ports, n_slots, demand)
    raise ValueError(f"unknown packing policy {policy!r}")
