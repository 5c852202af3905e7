"""LinkGuardian-style link-local retransmission between adjacent switches.

Instead of surfacing a corrupted cell as loss for the end hosts to
repair (an end-to-end RTT plus a go-back-N window of waste), the two
ports of a link repair it between themselves in roughly one *link*
round trip:

- the sending port numbers every cell it serializes (a link-local
  sequence per lane, assigned via ``Link.tx_observers``) and keeps a
  copy in a bounded retransmit buffer per direction;
- the receiving port detects the corruption (the link's adjudication
  hook fires with reason ``"filtered"`` or ``"error"``) and NACKs the
  sequence number over the reverse direction -- modelled as a scheduled
  resend after the reverse propagation plus one cell's serialization;
- the sender retransmits the buffered copy (bounded ``max_resends`` per
  cell); the receiver holds back later cells until the gap is filled,
  so delivery order stays FIFO -- AAL5 reassembly requires strictly
  in-order sequence numbers per VC, so a resequencer is not optional;
- anything unrecoverable -- buffer overflow evicted the copy, the link
  died, the resend budget ran out -- is *declared lost* to the
  resequencer, which skips the gap and releases the held cells: the
  fallback is ordinary loss, never deadlock.

Simplifications, stated: the NACK itself is an abstract scheduled
callback (it occupies no reverse-direction wire capacity and cannot
itself be lost), and the implicit cumulative ack that frees a buffered
copy is delivery at the far port.  Both err in link_retx's favour by a
cell time or two; the comparison the A6 study cares about -- link RTT
recovery versus end-to-end RTT recovery -- dwarfs that.

A *lane* is the cells of one direction that the receiving node handles
equally long after their arrival (:meth:`Link.delay_us`: data and credit
cells on arrival, a ping or a reconfiguration message after the
software's processing delay).  The link delivers each lane in transmit
order, so each lane is numbered and resequenced on its own: a control
cell still inside its processing delay never holds back the data cells
that arrive behind it, and every lane keeps the order it had on the wire.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.flowcontrol.sizing import retx_buffer_for_link
from repro.net.cell import Cell
from repro.net.link import Link
from repro.sim.kernel import Simulator
from repro.solutions.base import Solution, register


class _Lane:
    """Numbering and resequencing state of one lane (see the module
    docstring)."""

    __slots__ = ("direction", "next_seq", "expected", "holdback", "lost")

    def __init__(self, direction: int) -> None:
        self.direction = direction
        self.next_seq = 0
        self.expected = 0                    # receiver resequencer cursor
        self.holdback: Dict[int, Cell] = {}
        self.lost: Set[int] = set()


class LinkRetxGuard:
    """Link-local retransmission state for ONE link (both directions).

    One guard object plays both ends: sender-side numbering and buffer,
    receiver-side detection and resequencing.  Usable standalone (the
    conformance oracle attaches it to a bare :class:`Link`); the
    :class:`LinkRetx` solution instantiates one per switch-to-switch
    link of a network.
    """

    def __init__(
        self,
        link: Link,
        sim: Optional[Simulator] = None,
        buffer_cells: Optional[int] = None,
        max_resends: int = 3,
        nack_delay_us: Optional[float] = None,
        holdback_limit: Optional[int] = None,
    ) -> None:
        if max_resends < 1:
            raise ValueError(f"max_resends must be >= 1, got {max_resends}")
        self.link = link
        self.sim = sim if sim is not None else link.sim
        #: per-direction retransmit buffer bound, sized like credits:
        #: a copy must survive one link round trip (cell out, NACK back).
        self.buffer_cells = (
            buffer_cells
            if buffer_cells is not None
            else retx_buffer_for_link(link.length_km, link.bps)
        )
        if self.buffer_cells < 1:
            raise ValueError(f"buffer_cells must be >= 1, got {buffer_cells}")
        self.max_resends = max_resends
        #: detection-to-resend turnaround: the NACK rides the reverse
        #: direction (one propagation) plus one cell serialization.
        self.nack_delay_us = (
            nack_delay_us
            if nack_delay_us is not None
            else link.latency_us + link.cell_time_us
        )
        self.holdback_limit = (
            holdback_limit if holdback_limit is not None
            else 4 * self.buffer_cells
        )
        # -- per-direction state (index 0: a->b, 1: b->a) --------------
        #: lanes by the receiver's processing delay.
        self._lanes: List[Dict[float, _Lane]] = [{}, {}]
        self._seq_of: List[Dict[int, int]] = [{}, {}]  # cell.uid -> seq
        self._buffer: List["OrderedDict[Tuple[_Lane, int], Cell]"] = [
            OrderedDict(), OrderedDict(),
        ]
        self._resends_left: Dict[Tuple[_Lane, int], int] = {}
        # -- counters --------------------------------------------------
        self.nacks = 0
        self.resends = 0
        self.recovered = 0
        self.abandoned = 0
        self.buffer_overflows = 0
        self.holdback_overflows = 0
        self.duplicates = 0
        self.max_occupancy = 0
        self._attached = False
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        link = self.link
        if link.adjudicator is not None or link.deliver_hook is not None:
            raise ValueError(
                f"{link!r} already has a loss-recovery guard attached"
            )
        link.tx_observers = [*link.tx_observers, self._on_transmit]
        link.adjudicator = self._adjudicate
        link.deliver_hook = self._on_deliver
        self._attached = True

    def detach(self) -> None:
        """Remove the hooks (the link reverts to plain loss)."""
        if not self._attached:
            return
        self.link.tx_observers = [
            observer for observer in self.link.tx_observers
            if observer != self._on_transmit
        ]
        self.link.adjudicator = None
        self.link.deliver_hook = None
        self._attached = False

    def occupancy(self) -> int:
        """Cells currently held in the retransmit buffers (both ways)."""
        return len(self._buffer[0]) + len(self._buffer[1])

    def held_back(self) -> int:
        """Cells the resequencers hold back behind a gap (both ways)."""
        return sum(
            len(lane.holdback)
            for lanes in self._lanes for lane in lanes.values()
        )

    def _lane(self, direction: int, cell: Cell) -> _Lane:
        delay = self.link.delay_us(direction, cell.kind)
        lanes = self._lanes[direction]
        lane = lanes.get(delay)
        if lane is None:
            lane = lanes[delay] = _Lane(direction)
        return lane

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _on_transmit(self, link: Link, direction: int, cell: Cell) -> None:
        seqs = self._seq_of[direction]
        if cell.uid in seqs:
            return  # a resend keeps its original sequence number
        lane = self._lane(direction, cell)
        seq = lane.next_seq
        lane.next_seq = seq + 1
        seqs[cell.uid] = seq
        buffer = self._buffer[direction]
        buffer[lane, seq] = cell
        if len(buffer) > self.buffer_cells:
            # Bounded buffer: evict the oldest unacknowledged copy; a
            # later NACK for it is answered by declaring the cell lost.
            buffer.popitem(last=False)
            self.buffer_overflows += 1
        occupancy = self.occupancy()
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy

    def _resend(self, lane: _Lane, seq: int) -> None:
        if seq < lane.expected or seq in lane.lost:
            return  # settled while the NACK was in flight
        cell = self._buffer[lane.direction].get((lane, seq))
        if cell is None or not self.link.working:
            self._abandon(lane, seq)
            return
        self.resends += 1
        self.link.transmit(lane.direction, cell)

    # ------------------------------------------------------------------
    # receiver side: detection
    # ------------------------------------------------------------------
    def _adjudicate(
        self, link: Link, direction: int, cell: Cell, reason: str
    ) -> None:
        seq = self._seq_of[direction].get(cell.uid)
        if seq is None:
            return  # never numbered (transmitted before the guard attached)
        lane = self._lane(direction, cell)
        if seq < lane.expected or seq in lane.lost:
            return
        if reason == "dead":
            # Nothing to NACK over a dead link; recovery is the
            # reconfiguration layer's job.  Declare the cell lost so the
            # resequencer never waits for it.
            self._abandon(lane, seq)
            return
        key = (lane, seq)
        remaining = self._resends_left.setdefault(key, self.max_resends)
        if remaining <= 0 or key not in self._buffer[direction]:
            self._abandon(lane, seq)
            return
        self._resends_left[key] = remaining - 1
        self.nacks += 1
        self.sim.schedule(self.nack_delay_us, self._resend, lane, seq)

    # ------------------------------------------------------------------
    # receiver side: resequencing
    # ------------------------------------------------------------------
    def _on_deliver(self, link: Link, direction: int, cell: Cell) -> bool:
        seq = self._seq_of[direction].get(cell.uid)
        if seq is None:
            return False  # unnumbered: let the link deliver directly
        lane = self._lane(direction, cell)
        if seq < lane.expected or seq in lane.lost:
            self.duplicates += 1
            return True  # late copy of a settled sequence; swallow it
        if seq == lane.expected:
            self._release(lane, seq, cell)
            lane.expected = seq + 1
            self._drain(lane)
            return True
        # A gap (its recovery is in flight) precedes us: hold FIFO order.
        lane.holdback[seq] = cell
        if len(lane.holdback) > self.holdback_limit:
            # The gap is taking too long to fill; fall back to loss for
            # the blocking sequence so held cells cannot pile up forever.
            self.holdback_overflows += 1
            self._abandon(lane, lane.expected)
        return True

    def _release(self, lane: _Lane, seq: int, cell: Cell) -> None:
        """Deliver one in-order cell to the target port and free state."""
        direction = lane.direction
        if self._resends_left.pop((lane, seq), None) is not None:
            self.recovered += 1
        self._buffer[direction].pop((lane, seq), None)
        self._seq_of[direction].pop(cell.uid, None)
        # The hand-off to the node (as in Link._deliver).
        port = self.link.target_port(direction)
        port._cells_received += 1
        port.node.on_cell(port, cell)

    def _drain(self, lane: _Lane) -> None:
        """Advance the cursor over held-back cells and declared losses."""
        while True:
            expected = lane.expected
            if expected in lane.lost:
                lane.lost.discard(expected)
                lane.expected = expected + 1
                continue
            cell = lane.holdback.pop(expected, None)
            if cell is None:
                return
            self._release(lane, expected, cell)
            lane.expected = expected + 1

    def _abandon(self, lane: _Lane, seq: int) -> None:
        """Give up on ``seq``: fall back to loss and unblock the cursor."""
        if seq < lane.expected or seq in lane.lost:
            return
        self.abandoned += 1
        cell = self._buffer[lane.direction].pop((lane, seq), None)
        self._resends_left.pop((lane, seq), None)
        if cell is not None:
            self._seq_of[lane.direction].pop(cell.uid, None)
        if seq == lane.expected:
            lane.expected = seq + 1
            self._drain(lane)
        else:
            lane.lost.add(seq)


class LinkRetx(Solution):
    """One :class:`LinkRetxGuard` per switch-to-switch link."""

    name = "link_retx"

    def __init__(
        self,
        buffer_cells: Optional[int] = None,
        max_resends: int = 3,
        holdback_limit: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.buffer_cells = buffer_cells
        self.max_resends = max_resends
        self.holdback_limit = holdback_limit
        self.guards: List[LinkRetxGuard] = []

    def attach(self, net) -> None:
        super().attach(net)
        for edge, link in sorted(net.links.items()):
            (node_a, _), (node_b, _) = edge
            if not (node_a.is_switch and node_b.is_switch):
                continue  # host access links keep end-to-end semantics
            self.guards.append(
                LinkRetxGuard(
                    link,
                    buffer_cells=self.buffer_cells,
                    max_resends=self.max_resends,
                    holdback_limit=self.holdback_limit,
                )
            )
        self.probes.gauge(
            "retx_buffer_occupancy",
            lambda: sum(g.occupancy() for g in self.guards),
        )

    def metrics(self) -> Dict[str, float]:
        return {
            "guards": len(self.guards),
            "nacks": sum(g.nacks for g in self.guards),
            "resends": sum(g.resends for g in self.guards),
            "recovered": sum(g.recovered for g in self.guards),
            "abandoned": sum(g.abandoned for g in self.guards),
            "buffer_overflows": sum(g.buffer_overflows for g in self.guards),
            "holdback_overflows": sum(
                g.holdback_overflows for g in self.guards
            ),
            "max_buffer_occupancy": max(
                (g.max_occupancy for g in self.guards), default=0
            ),
        }

    def invariants(self, net) -> List:
        from repro.faults.invariants import InvariantResult

        # Accounting closure: every NACK either recovered its cell or
        # was abandoned; nothing may be left pending once the scenario
        # has drained (a pending NACK at quiescence is a stuck gap).
        problems: List[str] = []
        for guard in self.guards:
            held = guard.held_back()
            if held:
                problems.append(
                    f"{guard.link!r}: {held} cells still held back"
                )
        if problems:
            return [
                InvariantResult(
                    "link_retx resequencers drained", False,
                    "; ".join(problems[:5]),
                )
            ]
        totals = self.metrics()
        return [
            InvariantResult(
                "link_retx resequencers drained", True,
                f"{int(totals['recovered'])} recovered, "
                f"{int(totals['abandoned'])} fell back to loss, "
                f"no cells held back at quiescence",
            )
        ]


register(LinkRetx.name, LinkRetx)
