"""The ATM cell: 48 bytes of payload behind a 5-byte header.

The paper (section 1): "the network traffics in cells consisting of 48
bytes of data and a 5-byte header.  Using fixed-length cells makes it
easier to build high-speed switches and support bandwidth reservations."

We model the header fields the AN2 design actually uses -- the virtual
circuit id, a traffic-class bit (guaranteed vs best-effort), and an
end-of-packet marker for reassembly (AAL5-style).  Control traffic
(reconfiguration messages, credits, signaling, pings) also rides in cells;
those carry a :class:`CellKind` discriminator and a small payload object,
standing in for the dedicated control formats of the real hardware.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro._types import VcId


class CellKind(enum.Enum):
    """What a cell carries.

    ``DATA`` cells move user traffic.  Everything else models AN2's control
    plane: link-monitor pings/acks, reconfiguration protocol messages,
    credit returns for flow control, and virtual-circuit signaling.
    """

    DATA = "data"
    SETUP = "setup"
    TEARDOWN = "teardown"
    CREDIT = "credit"
    PING = "ping"
    PING_ACK = "ping_ack"
    RECONFIG = "reconfig"
    SIGNALING = "signaling"


class TrafficClass(enum.Enum):
    """Section 1's two classes of traffic."""

    GUARANTEED = "guaranteed"  # Continuous Bit Rate in ATM terms
    BEST_EFFORT = "best_effort"  # Variable Bit Rate


#: each kind's place in per-kind tables (the link's processing delays):
#: a table indexed by ``kind.index`` hashes no enum on a per-cell path.
for _index, _kind in enumerate(CellKind):
    _kind.index = _index

# The members as module globals: per-cell paths import these and test a
# cell's kind or class against them, far cheaper than an enum attribute.
DATA = CellKind.DATA
CREDIT = CellKind.CREDIT
PING = CellKind.PING
PING_ACK = CellKind.PING_ACK
RECONFIG = CellKind.RECONFIG
SIGNALING = CellKind.SIGNALING
GUARANTEED = TrafficClass.GUARANTEED
BEST_EFFORT = TrafficClass.BEST_EFFORT


_cell_ids = itertools.count()


@dataclass(slots=True)
class Cell:
    """One 53-byte cell.

    Attributes:
        vc: virtual circuit id from the header.
        kind: data vs the various control-cell kinds.
        traffic_class: guaranteed or best-effort scheduling class.
        payload: opaque payload (bytes for data, message objects for
            control cells).
        end_of_packet: AAL5-style last-cell-of-packet marker.
        seq: per-packet sequence number used by reassembly checks.
        packet_id: id of the packet this cell was segmented from.
        created_at: simulated time the cell entered the network (stamped by
            the sending controller; used for latency measurements).
    """

    vc: VcId
    kind: CellKind = CellKind.DATA
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT
    payload: Any = None
    end_of_packet: bool = False
    seq: int = 0
    packet_id: Optional[int] = None
    created_at: float = 0.0
    #: journey-trace context (:class:`repro.obs.journey.JourneyContext`),
    #: attached by the source host only while a journey trace is active;
    #: ``None`` for everything else, and every hop's
    #: instrumentation guard is just this ``is not None`` check.
    trace_ctx: Any = None
    uid: int = field(default_factory=_cell_ids.__next__)

    @property
    def is_data(self) -> bool:
        return self.kind is CellKind.DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.end_of_packet:
            flags.append("eop")
        if self.traffic_class is TrafficClass.GUARANTEED:
            flags.append("cbr")
        text = f"<Cell#{self.uid} vc={self.vc} {self.kind.value}"
        if flags:
            text += " " + ",".join(flags)
        return text + ">"


def make_control_cell(vc: VcId, kind: CellKind, payload: Any) -> Cell:
    """Build a control cell (kind must not be ``DATA``)."""
    if kind is CellKind.DATA:
        raise ValueError("control cells must not be DATA")
    return Cell(vc=vc, kind=kind, payload=payload)
