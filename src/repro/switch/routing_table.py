"""Per-line-card routing tables.

"The line card contains a routing table that maps the cell's virtual
circuit id to the port on which the cell should leave the switch"
(section 2).  Entries also retain the originating setup request so the
extensions (page-out/page-in, local reroute) can regenerate setup cells
without consulting the circuit's source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro._types import VcId
from repro.constants import PENDING_BUFFER_CAP
from repro.core.routing.signaling import SetupRequest
from repro.net.cell import Cell


@dataclass
class RouteEntry:
    """One circuit's state on the line card it *arrives* at."""

    vc: VcId
    out_port: int
    request: SetupRequest
    installed_at: float = 0.0
    cells_forwarded: int = 0
    last_activity: float = 0.0
    #: frame slots reserved for this (guaranteed) circuit at
    #: (card, ``out_port``); its teardown frees them.
    cells_per_frame: int = 0
    #: its output's cable is dead and the switch could not move it: its
    #: cells are dropped here until a repair or the cable's restore.
    broken: bool = False


class RoutingTable:
    """VC id -> route entry, plus the awaiting-setup cell buffer.

    "If [cells] arrive at a switch before the virtual circuit is
    established there, they will be buffered until the routing table
    entry is filled in."
    """

    def __init__(self, pending_cap: int = PENDING_BUFFER_CAP) -> None:
        self._entries: Dict[VcId, RouteEntry] = {}
        self._pending: Dict[VcId, List[Cell]] = {}
        #: circuits paged out on this card (section 2 extension): the
        #: retained setup request lets a later cell page them back in.
        self.paged: Dict[VcId, SetupRequest] = {}
        self.pending_cap = pending_cap
        self.pending_drops = 0

    # ------------------------------------------------------------------
    def lookup(self, vc: VcId) -> Optional[RouteEntry]:
        return self._entries.get(vc)

    def entries(self) -> List[RouteEntry]:
        return list(self._entries.values())

    def install(
        self, vc: VcId, out_port: int, request: SetupRequest, now: float
    ) -> RouteEntry:
        entry = RouteEntry(
            vc=vc,
            out_port=out_port,
            request=request,
            installed_at=now,
            last_activity=now,
        )
        self._entries[vc] = entry
        return entry

    def remove(self, vc: VcId) -> Optional[RouteEntry]:
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
