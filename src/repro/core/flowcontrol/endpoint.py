"""One end of one link's credit protocol (section 5, Figure 4).

Figure 4 is a link-local exchange between two parties.  A port is both:
upstream (it spends a *window* of credits) for circuits leaving through
it, downstream (it owns the *buffer pool* those credits stand for) for
circuits arriving on it.  A :class:`CreditEndpoint` is both halves for
one port, whoever owns the port -- a switch line card or a host -- and
the only place a CREDIT cell is built or consumed.  Every failure of the
exchange (a lost credit, request or reply, a stale or incoherent reply,
a cell for a circuit already closed) leaves a window smaller or
unchanged, never larger than the buffers behind it: "a lost message can
only cause reduced performance", and :meth:`resync_round` regains it.

The owner may read and pop :attr:`upstream` and :attr:`downstream`
directly (a cell transmitted is ``upstream[vc].consume()``), and is told
``on_window(vc, crossed_zero)`` when a CREDIT cell moved a balance --
``crossed_zero`` when it went from or to zero, the only moves that
change whether the circuit may send.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro._types import VcId
from repro.core.flowcontrol.credits import DownstreamCredits, UpstreamCredits
from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest
from repro.core.flowcontrol.sizing import credits_for_link
from repro.net.cell import Cell, CellKind
from repro.net.port import Port
from repro.sim.kernel import Simulator


class CreditEndpoint:
    """Windows and buffer pools of the circuits crossing one port."""

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        config,
        component: str,
        on_window: Callable[[VcId, bool], None],
    ) -> None:
        """``config`` is the installation's ``SwitchConfig``: both ends
        of a link read ``flow_control`` and ``credit_allocation`` from
        the one object.  ``component`` names this end in trace events."""
        self.sim = sim
        self.port = port
        #: "drop" mode keeps the pools (a full one drops the cell) but
        #: opens no window and returns no credit.
        self.credit_mode = config.flow_control == "credits"
        self._config = config
        self._component = component
        node_id = port.node.node_id
        self._flight_ring = f"{node_id.kind}.{node_id}"
        self._on_window = on_window
        #: circuits departing through this port: our credit balances for
        #: the far end's buffers.
        self.upstream: Dict[VcId, UpstreamCredits] = {}
        #: circuits arriving on this port: their buffers, credited to
        #: the far end.
        self.downstream: Dict[VcId, DownstreamCredits] = {}

    def allocation(self) -> int:
        """Buffers per circuit on this link: the configured figure, else
        section 5's round-trip sizing of the attached cable."""
        if self._config.credit_allocation is not None:
            return self._config.credit_allocation
        link = self.port.link  # windows and pools only exist on cabled ports
        return credits_for_link(link.length_km, link.bps)

    def open_window(self, vc: VcId) -> None:
        """``vc`` will leave through this port: give it a full window
        (idempotent; nothing in drop mode)."""
        if self.credit_mode and vc not in self.upstream:
            self.upstream[vc] = UpstreamCredits(
                self.allocation(), vc=vc,
                # Per-credit tracing only when a tracer is attached now.
                trace=self._trace if self.sim.tracer is not None else None,
            )

    def pool(self, vc: VcId) -> DownstreamCredits:
        """The buffers of ``vc`` arriving here, allocated on first use."""
        state = self.downstream.get(vc)
        if state is None:
            state = self.downstream[vc] = DownstreamCredits(self.allocation())
        return state

    def _trace(self, name: str, vc: VcId, **payload) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now, "flowcontrol", self._component, name,
                vc=vc, **payload,
            )

    def _record(self, name: str, vc: VcId, **payload) -> None:
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.record(
                self.sim.now, self._flight_ring, name,
                port=self.port.index, vc=int(vc), **payload,
            )

    # ------------------------------------------------------------------
    def free(self, vc: VcId) -> bool:
        """A buffer of ``vc`` emptied: count it and put one credit on
        the wire.  Returns whether a credit was sent."""
        self.downstream[vc].free()
        if self.credit_mode:
            self.port.send(Cell(vc=vc, kind=CellKind.CREDIT, payload=1))
        return self.credit_mode

    def note_stall(self, window: UpstreamCredits) -> None:
        """A send was blocked on ``window``'s zero balance; flight-record
        the first block of each stall episode."""
        if window.note_stall():
            self._record("credit.stall", window.vc, stalls=window.stalls)

    def accept(self, cell: Cell) -> None:
        """Consume one CREDIT cell that arrived on this port."""
        payload = cell.payload
        if isinstance(payload, ResyncRequest):
            state = self.downstream.get(payload.vc)
            if state is not None:
                reply = ResyncReply(
                    payload.vc, payload.cells_sent, state.buffers_freed
                )
                self.port.send(
                    Cell(vc=payload.vc, kind=CellKind.CREDIT, payload=reply)
                )
            return
        is_reply = isinstance(payload, ResyncReply)
        vc = payload.vc if is_reply else cell.vc
        window = self.upstream.get(vc)
        if window is None:
            return  # circuit closed while the cell was in flight
        before = window.balance
        if is_reply:
            recovered = window.apply_reply(payload)
            if recovered:
                self._trace("resync.recovered", vc, recovered=recovered)
                self._record("resync.recovered", vc, recovered=recovered)
            if window.balance == before:
                return  # stale, incoherent, or nothing was lost
        elif window.credit(payload if isinstance(payload, int) else 1):
            self._record("credit.unstall", vc, stalls=window.stalls)
        self._on_window(vc, (before == 0) != (window.balance == 0))

    def resync_round(self) -> None:
        """Send one resynchronization request per open window."""
        for vc, window in sorted(self.upstream.items()):
            request = window.make_request()
            self._trace("resync.round", vc, cells_sent=request.cells_sent)
            self._record("resync.round", vc, cells_sent=request.cells_sent)
            self.port.send(Cell(vc=vc, kind=CellKind.CREDIT, payload=request))
