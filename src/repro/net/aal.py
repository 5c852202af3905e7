"""Segmentation and reassembly (the controller's SAR function).

The AN2 controller "disassembles [packets] into cells to transmit to the
network" and "re-assemble[s] the cells into packets" at the receiver
(section 1).  We follow the AAL5 idea: cells of a packet travel in order on
one virtual circuit, the last cell carries an end-of-packet flag, and the
trailer records the true payload length so padding can be stripped.

Cells of *different* packets never interleave on one VC (AN2 virtual
circuits are FIFO per hop), but the reassembler still checks sequence
numbers so that corruption and loss are detected rather than silently
mis-assembled.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro._types import VcId
from repro.constants import CELL_PAYLOAD_BYTES
from repro.net.cell import BEST_EFFORT, DATA, Cell, TrafficClass
from repro.net.packet import Packet


class ReassemblyError(Exception):
    """A cell arrived that cannot extend the partial packet on its VC."""


class Segmenter:
    """Splits packets into data cells for one virtual circuit."""

    def __init__(
        self,
        vc: VcId,
        traffic_class: TrafficClass = BEST_EFFORT,
    ) -> None:
        self.vc = vc
        self.traffic_class = traffic_class

    def cell_count(self, packet: Packet) -> int:
        """How many cells ``packet`` occupies (at least one)."""
        assert packet.size is not None
        return max(1, math.ceil(packet.size / CELL_PAYLOAD_BYTES))

    def segment(self, packet: Packet, now: float = 0.0) -> List[Cell]:
        """Disassemble ``packet`` into its cells.

        The final cell's payload carries ``(chunk, packet)`` so that the
        matching :class:`Reassembler` can recover packet metadata; real
        hardware would carry the AAL5 trailer instead.
        """
        assert packet.size is not None
        count = self.cell_count(packet)
        cells: List[Cell] = []
        for index in range(count):
            start = index * CELL_PAYLOAD_BYTES
            chunk = packet.payload[start : start + CELL_PAYLOAD_BYTES]
            last = index == count - 1
            cells.append(
                Cell(
                    vc=self.vc,
                    kind=DATA,
                    traffic_class=self.traffic_class,
                    payload=(chunk, packet if last else None),
                    end_of_packet=last,
                    seq=index,
                    packet_id=packet.uid,
                    created_at=now,
                )
            )
        return cells


class Reassembler:
    """Rebuilds packets from in-order cells, one partial packet per VC."""

    def __init__(self) -> None:
        self._partial: Dict[VcId, List[Cell]] = {}
        self.packets_completed = 0
        self.cells_accepted = 0
        #: stale partials discarded when a *new* packet's first cell
        #: resynchronized the stream (each is one corrupted packet the
        #: caller must account for, even though no error was raised).
        self.packets_aborted = 0

    def pending_cells(self, vc: VcId) -> int:
        """Cells buffered for an incomplete packet on ``vc``."""
        return len(self._partial.get(vc, []))

    def accept(self, cell: Cell) -> Optional[Packet]:
        """Feed one cell; returns the completed packet, if any.

        Raises :class:`ReassemblyError` on sequence gaps (a dropped or
        reordered cell) so callers can count corrupted packets instead of
        delivering garbage.  When the offending cell is the seq-0 head of
        a *different* packet, the stale partial is charged to
        :attr:`packets_aborted` and the cell is re-accepted into a fresh
        buffer instead of raising, so one lost tail cell costs exactly
        one packet.
        """
        if not cell.is_data:
            raise ReassemblyError(f"non-data cell {cell!r} fed to reassembler")
        partial = self._partial.setdefault(cell.vc, [])
        if cell.seq != len(partial):
            expected = len(partial)
            self._partial[cell.vc] = []
            if (
                cell.seq == 0
                and partial
                and cell.packet_id != partial[0].packet_id
            ):
                # The previous packet's tail was lost and this cell opens
                # the *next* packet.  Discard the stale partial (exactly
                # one packet charged, via ``packets_aborted``) and
                # resynchronize on this cell instead of also discarding
                # it -- otherwise its own seq-1 cell would mismatch the
                # emptied buffer and a single lost cell would corrupt two
                # packets.
                self.packets_aborted += 1
                return self.accept(cell)
            raise ReassemblyError(
                f"vc {cell.vc}: expected cell seq {expected}, got {cell.seq}"
            )
        if partial and cell.packet_id != partial[0].packet_id:
            self._partial[cell.vc] = []
            raise ReassemblyError(
                f"vc {cell.vc}: cell of packet {cell.packet_id} interleaved "
                f"with packet {partial[0].packet_id}"
            )
        partial.append(cell)
        self.cells_accepted += 1
        if not cell.end_of_packet:
            return None
        del self._partial[cell.vc]
        chunk, original = cell.payload
        assert original is not None, "end-of-packet cell lost its trailer"
        payload = b"".join(
            c.payload[0] for c in partial[:-1]
        ) + chunk
        rebuilt = Packet(
            source=original.source,
            destination=original.destination,
            payload=payload,
            size=original.size,
            created_at=original.created_at,
            uid=original.uid,
        )
        self.packets_completed += 1
        return rebuilt

    def abort(self, vc: VcId) -> int:
        """Discard any partial packet on ``vc``; returns cells dropped."""
        dropped = len(self._partial.pop(vc, []))
        return dropped
