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
  node's buffers).

The port's link monitor and skeptic belong to the switch, as on every
node (:class:`~repro.net.node.Node`).
"""

from __future__ import annotations

from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.net.port import Port
from repro.switch.buffers import GuaranteedQueues, VcQueues
from repro.switch.routing_table import RoutingTable


class LineCard:
    """One port's buffers, tables and credit state."""

    def __init__(self, port: Port, credits: CreditEndpoint) -> None:
        self.port = port
        self.index = port.index
        self.routing_table = RoutingTable()
        self.vc_queues = VcQueues()
        self.guaranteed_queues = GuaranteedQueues()
        self.credits = credits
        #: the endpoint's own dicts, for the crossbar tick and the
        #: checkers that read balances and occupancy per cell.
        self.downstream = credits.downstream
        self.upstream = credits.upstream
        self.cells_dropped = 0
        self.cells_forwarded = 0

    def buffered_cells(self) -> int:
        return self.vc_queues.occupancy + self.guaranteed_queues.occupancy

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LineCard {self.port.label} buf={self.buffered_cells()}>"
