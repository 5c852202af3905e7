"""Line cards: the per-port intelligence of an AN2 switch.

"An AN2 switch contains up to 16 line cards...  The line card contains a
processor, buffers for incoming cells, memory for routing tables, logic
for buffer and crossbar management, and optical devices" (section 1).

A :class:`LineCard` aggregates, for one port:

- the routing table for circuits *arriving* on this port,
- per-VC random-access input buffers (best-effort) and the guaranteed
  buffer pool,
- the port's :class:`~repro.core.flowcontrol.endpoint.CreditEndpoint`:
  the *downstream* buffer pools of circuits arriving here (the buffers
  the upstream node holds credits for) and the *upstream* windows of
  circuits departing through this port (our credits for the next
  node's buffers),
- the link monitor and skeptic for the attached cable.
"""

from __future__ import annotations

from typing import Optional

from repro._types import VcId
from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.core.reconfig.monitor import PortMonitor
from repro.core.reconfig.skeptic import Skeptic
from repro.net.port import Port
from repro.switch.buffers import GuaranteedQueues, VcQueues
from repro.switch.routing_table import RoutingTable


class LineCard:
    """One port's buffers, tables, credit state, and monitor."""

    def __init__(
        self, port: Port, credits: CreditEndpoint, pending_cap: int = 1024
    ) -> None:
        self.port = port
        self.index = port.index
        self.routing_table = RoutingTable(pending_cap=pending_cap)
        self.vc_queues = VcQueues()
        self.guaranteed_queues = GuaranteedQueues()
        self.credits = credits
        #: the endpoint's own dicts, for the crossbar tick and the
        #: checkers that read balances and occupancy per cell.
        self.downstream = credits.downstream
        self.upstream = credits.upstream
        self.monitor: Optional[PortMonitor] = None
        self.skeptic: Optional[Skeptic] = None
        self.cells_dropped = 0
        self.cells_forwarded = 0

    # ------------------------------------------------------------------
    def release_vc(self, vc: VcId) -> int:
        """Free all state for a circuit; returns cells discarded."""
        discarded = len(self.vc_queues.drain_vc(vc))
        self.downstream.pop(vc, None)
        self.upstream.pop(vc, None)
        self.routing_table.remove(vc)
        return discarded

    def buffered_cells(self) -> int:
        return self.vc_queues.occupancy + self.guaranteed_queues.occupancy

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LineCard {self.port.label} buf={self.buffered_cells()}>"
