"""LinkGuardian-style link-local retransmission between adjacent switches.

Instead of surfacing a corrupted cell as loss for the end hosts to
repair (an end-to-end RTT plus a go-back-N window of waste), the two
ports of a link repair it between themselves in roughly one *link*
round trip:

- the sending port numbers every cell it serializes (a per-direction
  link-local sequence, assigned via ``Link.tx_observers``) and keeps a
  copy in a bounded retransmit buffer;
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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.core.flowcontrol.sizing import retx_buffer_for_link
from repro.net.cell import Cell
from repro.net.link import Link
from repro.sim.kernel import Simulator
from repro.solutions.base import Solution, register


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
        self._next_seq = [0, 0]
        self._seq_of: List[Dict[int, int]] = [{}, {}]  # cell.uid -> seq
        self._buffer: List["OrderedDict[int, Cell]"] = [
            OrderedDict(), OrderedDict(),
        ]
        self._resends_left: List[Dict[int, int]] = [{}, {}]
        self._expected = [0, 0]          # receiver resequencer cursor
        self._holdback: List[Dict[int, Cell]] = [{}, {}]
        self._lost: List[Set[int]] = [set(), set()]
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
        link.tx_observers.append(self._on_transmit)
        link.adjudicator = self._adjudicate
        link.deliver_hook = self._on_deliver
        self._attached = True

    def detach(self) -> None:
        """Remove the hooks (the link reverts to plain loss)."""
        if not self._attached:
            return
        self.link.tx_observers.remove(self._on_transmit)
        self.link.adjudicator = None
        self.link.deliver_hook = None
        self._attached = False

    def occupancy(self) -> int:
        """Cells currently held in the retransmit buffers (both ways)."""
        return len(self._buffer[0]) + len(self._buffer[1])

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _on_transmit(self, link: Link, direction: int, cell: Cell) -> None:
        seqs = self._seq_of[direction]
        if cell.uid in seqs:
            return  # a resend keeps its original sequence number
        seq = self._next_seq[direction]
        self._next_seq[direction] = seq + 1
        seqs[cell.uid] = seq
        buffer = self._buffer[direction]
        buffer[seq] = cell
        if len(buffer) > self.buffer_cells:
            # Bounded buffer: evict the oldest unacknowledged copy; a
            # later NACK for it is answered by declaring the cell lost.
            buffer.popitem(last=False)
            self.buffer_overflows += 1
        occupancy = self.occupancy()
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy

    def _resend(self, direction: int, seq: int) -> None:
        if seq < self._expected[direction] or seq in self._lost[direction]:
            return  # settled while the NACK was in flight
        cell = self._buffer[direction].get(seq)
        if cell is None or not self.link.working:
            self._abandon(direction, seq)
            return
        self.resends += 1
        self.link.transmit(direction, cell)

    # ------------------------------------------------------------------
    # receiver side: detection
    # ------------------------------------------------------------------
    def _adjudicate(
        self, link: Link, direction: int, cell: Cell, reason: str
    ) -> None:
        seq = self._seq_of[direction].get(cell.uid)
        if seq is None:
            return  # never numbered (transmitted before the guard attached)
        if seq < self._expected[direction] or seq in self._lost[direction]:
            return
        if reason == "dead":
            # Nothing to NACK over a dead link; recovery is the
            # reconfiguration layer's job.  Declare the cell lost so the
            # resequencer never waits for it.
            self._abandon(direction, seq)
            return
        remaining = self._resends_left[direction].setdefault(
            seq, self.max_resends
        )
        if remaining <= 0 or seq not in self._buffer[direction]:
            self._abandon(direction, seq)
            return
        self._resends_left[direction][seq] = remaining - 1
        self.nacks += 1
        self.sim.schedule(self.nack_delay_us, self._resend, direction, seq)

    # ------------------------------------------------------------------
    # receiver side: resequencing
    # ------------------------------------------------------------------
    def _on_deliver(self, link: Link, direction: int, cell: Cell) -> bool:
        seq = self._seq_of[direction].get(cell.uid)
        if seq is None:
            return False  # unnumbered: let the link deliver directly
        if seq < self._expected[direction] or seq in self._lost[direction]:
            self.duplicates += 1
            return True  # late copy of a settled sequence; swallow it
        if seq == self._expected[direction]:
            self._release(direction, seq, cell)
            self._expected[direction] = seq + 1
            self._drain(direction)
            return True
        # A gap (its recovery is in flight) precedes us: hold FIFO order.
        self._holdback[direction][seq] = cell
        if len(self._holdback[direction]) > self.holdback_limit:
            # The gap is taking too long to fill; fall back to loss for
            # the blocking sequence so held cells cannot pile up forever.
            self.holdback_overflows += 1
            self._abandon(direction, self._expected[direction])
        return True

    def _release(self, direction: int, seq: int, cell: Cell) -> None:
        """Deliver one in-order cell to the target port and free state."""
        if seq in self._resends_left[direction]:
            self.recovered += 1
        self._buffer[direction].pop(seq, None)
        self._resends_left[direction].pop(seq, None)
        self._seq_of[direction].pop(cell.uid, None)
        self.link.target_port(direction).deliver(cell)

    def _drain(self, direction: int) -> None:
        """Advance the cursor over held-back cells and declared losses."""
        while True:
            expected = self._expected[direction]
            if expected in self._lost[direction]:
                self._lost[direction].discard(expected)
                self._expected[direction] = expected + 1
                continue
            cell = self._holdback[direction].pop(expected, None)
            if cell is None:
                return
            self._release(direction, expected, cell)
            self._expected[direction] = expected + 1

    def _abandon(self, direction: int, seq: int) -> None:
        """Give up on ``seq``: fall back to loss and unblock the cursor."""
        if seq < self._expected[direction] or seq in self._lost[direction]:
            return
        self.abandoned += 1
        cell = self._buffer[direction].pop(seq, None)
        self._resends_left[direction].pop(seq, None)
        if cell is not None:
            self._seq_of[direction].pop(cell.uid, None)
        if seq == self._expected[direction]:
            self._expected[direction] = seq + 1
            self._drain(direction)
        else:
            self._lost[direction].add(seq)


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
            held = len(guard._holdback[0]) + len(guard._holdback[1])
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
