"""Distributed bandwidth admission: the paper's hinted alternative.

Section 4: "The request to reserve bandwidth is processed by a network
service called 'bandwidth central'.  The name is misleading -- network
central might well be implemented in a distributed fashion."

This module implements that alternative as a hop-by-hop reservation
protocol, with *no* global state:

1. the source host emits a ``ReserveRequest`` (riding the signaling
   circuit, like a setup cell);
2. each switch on the path picks the next hop exactly as circuit setup
   does (its own topology view, up*/down* legal), checks **its own
   ledger** of unreserved cells/frame on that outgoing link, and if the
   request fits: holds the bandwidth, revises its frame schedule
   (Slepian-Duguid), installs the routing entry, and forwards;
3. the destination host answers ``ReserveConfirm``, which retraces the
   path upstream so every hop (and finally the source) learns the grant;
4. any hop without capacity (or without a legal continuation) answers
   ``ReserveReject``; the rejection retraces upstream, and each hop rolls
   its hold, schedule revision, and routing entry back.

Compared with the centralized service, decisions use only local
knowledge: a request can be rejected on a full link even though an
alternate route had room (the centralized version would have found it).
The A2 ablation benchmark quantifies exactly that acceptance gap, along
with the latency advantage of not round-tripping to a central switch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro._types import NodeId, VcId
from repro.constants import FAST_LINK_BPS
from repro.core.guaranteed.frames import ScheduleError
from repro.core.routing.signaling import SetupRequest, choose_output
from repro.net.cell import TrafficClass


@dataclass(frozen=True)
class ReserveRequest:
    """Hop-by-hop bandwidth reservation request."""

    vc: VcId
    source: NodeId
    destination: NodeId
    cells_per_frame: int
    gone_down: bool = False
    hop_count: int = 0


@dataclass(frozen=True)
class ReserveConfirm:
    vc: VcId


@dataclass(frozen=True)
class ReserveReject:
    vc: VcId
    reason: str = ""


@dataclass(frozen=True)
class ReserveRelease:
    """Teardown of a granted reservation, travelling downstream."""

    vc: VcId


@dataclass
class _PendingHold:
    in_port: int
    out_port: int
    cells: int
    confirmed: bool = False


class DistributedAdmissionAgent:
    """One switch's share of the distributed bandwidth service.

    The agent owns the unreserved-capacity ledger for the switch's
    *outgoing* links and the pending/confirmed holds of reservations
    passing through.  It plugs into the same transport surface as the
    signaling agent (the switch dispatches Reserve* messages here).
    """

    def __init__(self, switch) -> None:
        self.switch = switch
        #: residual cells/frame per outgoing port; populated lazily from
        #: the attached link's speed.
        self._residual: Dict[int, int] = {}
        self._holds: Dict[VcId, _PendingHold] = {}
        self.requests_seen = 0
        self.rejections_issued = 0
        self.confirms_forwarded = 0

    # ------------------------------------------------------------------
    def residual(self, out_port: int) -> int:
        if out_port not in self._residual:
            link = self.switch.ports[out_port].link
            frame_slots = self.switch.config.frame_slots
            if link is None:
                capacity = 0
            else:
                capacity = max(1, int(frame_slots * link.bps / FAST_LINK_BPS))
            self._residual[out_port] = capacity
        return self._residual[out_port]

    # ------------------------------------------------------------------
    def handle(self, in_port: int, message) -> None:
        if isinstance(message, ReserveRequest):
            self._handle_request(in_port, message)
        elif isinstance(message, ReserveConfirm):
            self._handle_confirm(in_port, message)
        elif isinstance(message, ReserveReject):
            self._handle_reject(in_port, message)
        elif isinstance(message, ReserveRelease):
            self._handle_release(in_port, message)
        else:
            raise TypeError(f"unknown admission message {message!r}")

    # ------------------------------------------------------------------
    def _handle_request(self, in_port: int, request: ReserveRequest) -> None:
        self.requests_seen += 1
        decision = choose_output(
            self.switch, self.switch.node_id, request.destination,
            request.gone_down,
        )
        if decision is None:
            self._reject_back(in_port, request.vc, "no legal route")
            return
        out_port, next_gone_down = decision
        if self.residual(out_port) < request.cells_per_frame:
            self._reject_back(in_port, request.vc, "link full")
            return
        # Hold locally: ledger, frame schedule, routing entry.
        try:
            self.switch.add_reservation(
                in_port, out_port, request.cells_per_frame
            )
        except ScheduleError:
            self._reject_back(in_port, request.vc, "schedule full")
            return
        self._residual[out_port] -= request.cells_per_frame
        entry_request = SetupRequest(
            vc=request.vc, source=request.source, destination=request.destination,
            traffic_class=TrafficClass.GUARANTEED,
            gone_down=request.gone_down, hop_count=request.hop_count,
        )
        self.switch.install_circuit(
            request.vc, in_port, out_port, entry_request,
            request.cells_per_frame,
        )
        self._holds[request.vc] = _PendingHold(
            in_port, out_port, request.cells_per_frame
        )
        self.switch.send_signaling(
            out_port,
            replace(
                request,
                gone_down=next_gone_down,
                hop_count=request.hop_count + 1,
            ),
        )

    def _handle_confirm(self, in_port: int, message: ReserveConfirm) -> None:
        hold = self._holds.get(message.vc)
        if hold is None or in_port != hold.out_port:
            return
        hold.confirmed = True
        self.confirms_forwarded += 1
        self.switch.send_signaling(hold.in_port, message)

    def _handle_reject(self, in_port: int, message: ReserveReject) -> None:
        hold = self._holds.pop(message.vc, None)
        if hold is None or in_port != hold.out_port:
            return
        self._rollback(message.vc, hold)
        self.switch.send_signaling(hold.in_port, message)

    def _handle_release(self, in_port: int, message: ReserveRelease) -> None:
        hold = self._holds.pop(message.vc, None)
        if hold is None:
            return
        self._rollback(message.vc, hold)
        self.switch.send_signaling(hold.out_port, message)

    # ------------------------------------------------------------------
    def _rollback(self, vc: VcId, hold: _PendingHold) -> None:
        # The teardown frees the circuit's frame slots with its entry.
        self._residual[hold.out_port] += hold.cells
        self.switch.remove_circuit(vc)

    def _reject_back(self, in_port: int, vc: VcId, reason: str) -> None:
        self.rejections_issued += 1
        self.switch.send_signaling(in_port, ReserveReject(vc, reason))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DistributedAdmissionAgent {self.switch.node_id} "
            f"{len(self._holds)} holds>"
        )
