"""Switch and host ports: the endpoints of links.

Each AN2 switch has up to 16 ports, "each of which may be connected to a
host or to the port of another switch" (section 1).  A :class:`Port`
belongs to a :class:`~repro.net.node.Node` and may be cabled to a link;
the link hands every cell arriving here to ``port.node.on_cell(port,
cell)``, counting it in :attr:`Port.cells_received`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._types import PortIndex
from repro.net.cell import Cell
from repro.net.link import WORKING, counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.node import Node


class PortError(Exception):
    """Port misuse: double-cabling, sending on an unconnected port, etc."""


class Port:
    """One port of a node."""

    cells_sent = counter("_cells_sent", lambda port: port.link)
    cells_received = counter("_cells_received", lambda port: port.link)

    def __init__(self, node: "Node", index: PortIndex) -> None:
        self.node = node
        self.index = index
        self.link: Optional["Link"] = None
        self._direction: Optional[int] = None
        self._cells_sent = 0
        self._cells_received = 0

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self.link is not None

    @property
    def up(self) -> bool:
        """Cabled, and the cable is working."""
        link = self.link
        return link is not None and link.state is WORKING

    @property
    def label(self) -> str:
        return f"{self.node.node_id}.p{self.index}"

    def attach(self, link: "Link", direction: int) -> None:
        """Called by :class:`Link` when the cable is plugged in."""
        if self.link is not None:
            raise PortError(f"{self.label} already cabled")
        self.link = link
        self._direction = direction

    def can_transmit_at(self, now: float, slack: float = 1e-9) -> bool:
        """Is the outbound direction of the cable idle (and alive)?

        The switch's crossbar loop uses this as the "output port busy"
        test: a matched output must be able to start serializing its cell
        this slot, otherwise cells would pile up inside the link model
        (which has no queue in the real hardware).  ``now`` is the
        simulator's current time.
        """
        link = self.link
        if link is None or link.state is not WORKING:
            return False
        if link._fold_at <= now:
            link._fold(now)
        return link._next_free[self._direction] <= now + slack

    def free_at(self) -> Optional[float]:
        """When the outbound wire can next start serializing a cell (a
        time not after now: it is idle); ``None`` while the port is not
        cabled or its link is down."""
        link = self.link
        if link is None or link.state is not WORKING:
            return None
        link.settle()
        return link._next_free[self._direction]

    def peer(self) -> Optional["Port"]:
        """The port at the other end of the cable, if any."""
        if self.link is None:
            return None
        return self.link.other_port(self)

    # ------------------------------------------------------------------
    def send(self, cell: Cell, bits: Optional[int] = None) -> None:
        """Transmit a cell out this port.

        Sending on an unconnected port raises; sending on a dead link
        silently loses the cell (that is the physical reality the
        fault-monitoring software must detect).  ``bits`` overrides the
        serialization length for variable-length (AN1 packet) frames.
        """
        if self.link is None or self._direction is None:
            raise PortError(f"{self.label} is not connected")
        self._cells_sent += 1
        self.link.transmit(self._direction, cell, bits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.label}{' (cabled)' if self.connected else ''}>"
