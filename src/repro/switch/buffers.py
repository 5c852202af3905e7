"""Input buffering for the event-driven switch.

Section 3: "the AN2 switch avoids the head-of-line blocking problem by
using random-access input buffers.  Cells that cannot be forwarded in a
time slot are retained at the input in a queue associated with their
virtual circuit.  The first cell of any queued virtual circuit can be
selected for transmission across the switch."

:class:`VcQueues` is one line card's input buffering: a FIFO per virtual
circuit, grouped by the output port the circuit leaves through, with
round-robin service among a group's circuits (so one credit-starved VC
cannot block its siblings -- "if one virtual circuit is blocked, other
virtual circuits passing over the same link are not affected").  Which
circuits may be served is kept as a per-output *ready set*, so the
switch's crossbar tick reads request bits instead of walking queues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro._types import VcId
from repro.net.cell import Cell


class VcQueues:
    """Per-VC random-access input buffers for one line card.

    Each output group keeps its *ready set*: the circuits with a cell
    queued that the owning switch last declared sendable
    (:meth:`set_ready` -- in credit mode, a positive balance for the
    next hop).  The card requests an output iff that set is non-empty,
    and :meth:`pop` serves only ready circuits.
    """

    def __init__(self) -> None:
        # out_port -> vc -> cells
        self._queues: Dict[int, Dict[VcId, Deque[Cell]]] = {}
        # out_port -> round-robin order of its VCs
        self._rotation: Dict[int, Deque[VcId]] = {}
        # out_port -> VCs that may be served now (always a subset of the
        # group's non-empty queues)
        self._ready: Dict[int, Set[VcId]] = {}
        self._occupancy = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupancy

    def occupancy_for(self, out_port: int) -> int:
        group = self._queues.get(out_port)
        if not group:
            return 0
        return sum(len(q) for q in group.values())

    def queued_vcs(self, out_port: int) -> List[VcId]:
        group = self._queues.get(out_port, {})
        return [vc for vc, q in group.items() if q]

    def holds(self, out_port: int, vc: VcId) -> bool:
        """Has ``vc`` a queue (possibly empty now) toward ``out_port``?"""
        return vc in self._queues.get(out_port, ())

    def requests(self, out_port: int) -> bool:
        """Is some circuit ready for ``out_port`` (the request bit)?"""
        return bool(self._ready.get(out_port))

    def push(self, out_port: int, vc: VcId, cell: Cell) -> bool:
        """Queue a cell; returns whether it is the circuit's only one
        (the edge on which the owner should :meth:`set_ready` it)."""
        group = self._queues.get(out_port)
        if group is None:
            group = self._queues[out_port] = {}
            self._rotation[out_port] = deque()
            self._ready[out_port] = set()
        queue = group.get(vc)
        if queue is None:
            queue = group[vc] = deque()
            self._rotation[out_port].append(vc)
        queue.append(cell)
        self._occupancy += 1
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)
        return len(queue) == 1

    # ------------------------------------------------------------------
    def set_ready(self, out_port: int, vc: VcId, sendable: bool) -> bool:
        """Declare whether ``vc`` may be served toward ``out_port``.

        Idempotent; a circuit with no cell queued is never ready.
        Returns whether the card now requests ``out_port`` at all (some
        circuit of the group is ready) -- the card's request bit.
        """
        ready = self._ready.get(out_port)
        if ready is None:
            return False  # nothing was ever queued toward out_port
        if sendable and self._queues[out_port].get(vc):
            ready.add(vc)
            return True
        ready.discard(vc)
        return bool(ready)

    def pop(self, out_port: int) -> Optional[Tuple[VcId, Cell]]:
        """Serve the next ready circuit destined for ``out_port``.

        Round-robin among the group's circuits: the served VC (and every
        unready one passed over before it) moves to the back of the
        rotation, which is the starvation-freedom complement to PIM's
        randomization at the port level.  A circuit whose last cell
        leaves drops out of the ready set.
        """
        ready = self._ready.get(out_port)
        if not ready:
            return None
        rotation = self._rotation[out_port]
        while rotation[0] not in ready:
            rotation.rotate(-1)
        vc = rotation[0]
        rotation.rotate(-1)
        queue = self._queues[out_port][vc]
        cell = queue.popleft()
        if not queue:
            ready.discard(vc)
        self._occupancy -= 1
        return (vc, cell)

    def drain_vc(self, vc: VcId) -> List[Cell]:
        """Remove and return all cells of one circuit (teardown/reroute)."""
        drained: List[Cell] = []
        for out_port, group in list(self._queues.items()):
            queue = group.pop(vc, None)
            if queue:
                drained.extend(queue)
                self._occupancy -= len(queue)
            if queue is not None:
                rotation = self._rotation.get(out_port)
                if rotation and vc in rotation:
                    rotation.remove(vc)
                self._ready[out_port].discard(vc)
        return drained


class GuaranteedQueues:
    """Guaranteed-traffic buffers for one line card.

    "Separate buffer pools are maintained for guaranteed and best-effort
    traffic" (section 4).  A FIFO per output port suffices: the frame
    schedule already dedicates specific slots to specific (input, output)
    pairs, and cells of circuits sharing a pair are interchangeable in
    arrival order.
    """

    def __init__(self) -> None:
        self._queues: Dict[int, Deque[Cell]] = {}
        self._occupancy = 0
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def push(self, out_port: int, cell: Cell) -> None:
        self._queues.setdefault(out_port, deque()).append(cell)
        self._occupancy += 1
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)

    def pop(self, out_port: int) -> Optional[Cell]:
        queue = self._queues.get(out_port)
        if not queue:
            return None
        self._occupancy -= 1
        return queue.popleft()

    def waiting(self) -> List[int]:
        """Output ports with a guaranteed cell queued."""
        if not self._occupancy:
            return []
        return [out_port for out_port, queue in self._queues.items() if queue]
