"""Per-line-card routing tables, and the one record of a circuit at a hop.

"The line card contains a routing table that maps the cell's virtual
circuit id to the port on which the cell should leave the switch"
(section 2).  The entry is the circuit's :class:`HopCircuit`: the
record of all the switch holds for it (DESIGN section 2's table), whose
transitions are its methods and whose every exit ends in
:meth:`HopCircuit.release`.  It keeps the setup request, so page-in and
local reroute regenerate setup cells without the circuit's source.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._types import VcId
from repro.constants import PENDING_BUFFER_CAP
from repro.core.routing.signaling import PageOut, SetupRequest
from repro.net.cell import Cell, TrafficClass


class RoutingTable:
    """VC id -> the circuit's record, plus the awaiting-setup cell buffer.

    "If [cells] arrive at a switch before the virtual circuit is
    established there, they will be buffered until the routing table
    entry is filled in."
    """

    def __init__(self, pending_cap: int = PENDING_BUFFER_CAP) -> None:
        self._entries: Dict[VcId, HopCircuit] = {}
        self._pending: Dict[VcId, List[Cell]] = {}
        self.pending_cap = pending_cap
        self.pending_drops = 0

    # ------------------------------------------------------------------
    def lookup(self, vc: VcId) -> Optional[HopCircuit]:
        return self._entries.get(vc)

    def entries(self) -> List[HopCircuit]:
        return list(self._entries.values())

    def install(self, entry: HopCircuit) -> None:
        """Map ``entry.vc`` to ``entry`` (replacing any entry it had)."""
        self._entries[entry.vc] = entry

    def remove(self, vc: VcId) -> Optional[HopCircuit]:
        self._pending.pop(vc, None)
        return self._entries.pop(vc, None)

    # ------------------------------------------------------------------
    def buffer_pending(self, vc: VcId, cell: Cell) -> bool:
        """Hold a cell that beat its setup cell here.  False if dropped."""
        queue = self._pending.setdefault(vc, [])
        if len(queue) >= self.pending_cap:
            self.pending_drops += 1
            return False
        queue.append(cell)
        return True

    def take_pending(self, vc: VcId) -> List[Cell]:
        return self._pending.pop(vc, [])


#: cells waiting for a setup (or a page-in's), installed, paged out.
AWAITING, ACTIVE, PAGED = "awaiting", "active", "paged"


class HopCircuit:
    """One circuit's state at one switch, arriving on ``card``."""

    __slots__ = (
        "switch", "vc", "card", "state", "request", "out_port",
        "last_activity", "cells_forwarded", "cells_per_frame", "broken",
        "left",
    )

    def __init__(self, switch, vc: VcId, card) -> None:
        self.switch, self.vc, self.card = switch, vc, card
        self.state = AWAITING
        self.request: Optional[SetupRequest] = None
        #: kept while paged, so a teardown still goes on from here.
        self.out_port: Optional[int] = None
        self.last_activity = 0.0
        self.cells_forwarded = 0
        #: frame slots reserved for it at (card, ``out_port``).
        self.cells_per_frame = 0
        #: its output's cable is dead and it could not move: its cells
        #: are dropped here until a repair or the cable's restore.
        self.broken = False
        #: cards a repeated setup moved it off: each keeps its pool, so
        #: cells still coming in by the old path give their credits back.
        self.left = ()

    @property
    def in_port(self) -> int:
        return self.card.index

    @property
    def best_effort(self) -> bool:
        return self.request.traffic_class is TrafficClass.BEST_EFFORT

    # ------------------------------------------------------------------
    def install(
        self, out_port: int, request: SetupRequest, cells_per_frame: int
    ) -> None:
        """Awaiting or paged -> active, or a repeated setup: a fresh
        entry toward ``out_port`` (what waits for another output moves
        along), its own frame slots, and the cells that waited for it."""
        switch, card, vc = self.switch, self.card, self.vc
        self.release_slots()
        if self.out_port not in (None, out_port):
            self.move(out_port)
        if self.state is not ACTIVE:
            # Installed circuits stay in install order (paging scans it).
            switch.circuits.pop(vc, None)
            switch.circuits[vc] = self
        self.state = ACTIVE
        self.request = request
        self.out_port = out_port
        self.last_activity = switch.sim.now
        self.cells_forwarded = 0
        self.cells_per_frame = cells_per_frame
        self.broken = False
        table = card.routing_table
        table.install(self)
        if self.best_effort:
            card.credits.pool(vc)
            switch.cards[out_port].credits.open_window(vc)
        for cell in table.take_pending(vc):
            switch._enqueue(card, self, cell)
        switch._kick()

    def move(self, new_port: int) -> None:
        """Point the circuit at ``new_port``: its queued cells and its
        window go along, and the old output's request bit goes."""
        switch, card, vc = self.switch, self.card, self.vc
        old_port = self.out_port
        cells = card.vc_queues.drain_vc(vc)
        guaranteed = card.guaranteed_queues.drop_vc(old_port, vc)
        self.out_port = new_port
        switch.cards[old_port].upstream.pop(vc, None)
        switch._refresh(card, old_port, vc)
        if self.best_effort:
            switch.cards[new_port].credits.open_window(vc)
        for cell in cells:
            card.vc_queues.push(new_port, vc, cell)
        for cell in guaranteed:
            card.guaranteed_queues.push(new_port, cell)
        switch._refresh(card, new_port, vc)

    def reenter(self, card) -> None:
        """A repeated setup arrived on ``card``: release this card's hold
        and move the record there (its pending cells, if any, wait)."""
        self.release("reinstalled")
        self.left = (*(c for c in self.left if c is not card), self.card)
        self.card = card

    def strand(self) -> None:
        """Broken on a dead output: the cells held for it are dropped
        and counted, their buffers freed as a forwarded cell's."""
        switch, card = self.switch, self.card
        self.broken = True
        switch.stats.broken_circuits += 1
        switch._drop_stranded(card, self.vc, self._take_cells())

    def page_out(self) -> bool:
        """Active -> paged, for a best-effort circuit with no cell queued
        (a page-in regenerates the setup, never a reservation); tells
        the next switch, which may cascade."""
        if self.state is not ACTIVE or not self.best_effort or (
            self.vc in self.card.vc_queues.queued_vcs(self.out_port)
        ):
            return False
        self.release("paged")
        self.switch.send_signaling(self.out_port, PageOut(self.vc))
        self.switch.stats.page_outs += 1
        return True

    def release_slots(self, reason: str = "released") -> None:
        """Free the frame slots it was installed with, once; its
        guaranteed cells that waited for them are dropped and counted,
        each with a journey ``drop`` record."""
        cells, self.cells_per_frame = self.cells_per_frame, 0
        if cells:
            switch, card, vc = self.switch, self.card, self.vc
            switch.remove_reservation(self.in_port, self.out_port, cells)
            waiting = card.guaranteed_queues.drop_vc(self.out_port, vc)
            switch._queued -= len(waiting)
            switch._drop_stranded(card, vc, waiting, reason)

    def release(self, reason: str = "closed") -> None:
        """Free what the hop holds for the circuit: every exit ends here.
        Cells queued or awaiting a setup are dropped, counted and given
        a journey ``drop`` record.  ``"paged"`` keeps the record, its
        out port and its setup request for a page-in; ``"reinstalled"``
        (a setup on another card, :meth:`reenter`) keeps the record, the
        window -- whose balance stands for cells already downstream --
        and this card's pool, so each dropped cell's credit goes back;
        ``"closed"`` forgets the record and frees every card's hold."""
        switch, card, vc = self.switch, self.card, self.vc
        table = card.routing_table
        cells = table.take_pending(vc)
        table.remove(vc)
        self.release_slots(reason)
        if reason != "reinstalled":
            card.downstream.pop(vc, None)
        if self.out_port is not None:
            cells += self._take_cells()
            if reason != "reinstalled":
                switch.cards[self.out_port].upstream.pop(vc, None)
        switch._drop_stranded(card, vc, cells, reason)
        if reason == "paged":
            self.state = PAGED
        elif reason == "reinstalled":
            self.state = AWAITING
        else:
            del switch.circuits[vc]
            for other in switch.cards:
                if other is not card:
                    other.downstream.pop(vc, None)
                    switch._drop_stranded(
                        other, vc, other.routing_table.take_pending(vc), reason
                    )

    def _take_cells(self):
        """Remove and return every cell queued for the circuit here."""
        card, vc = self.card, self.vc
        cells = card.guaranteed_queues.drop_vc(self.out_port, vc)
        cells += card.vc_queues.drain_vc(vc)
        self.switch._queued -= len(cells)
        self.switch._refresh(card, self.out_port, vc)
        return cells
