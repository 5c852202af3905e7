"""Virtual circuits: identities and life cycle.

"Routing in AN2 is based on virtual circuits.  For our purposes here, a
virtual circuit represents a stream of cells to be transmitted between a
pair of hosts...  The header of each cell contains its virtual circuit
id." (Section 1.)

Real ATM remaps the VCI at every hop; this model uses network-unique ids
(a documented simplification -- see DESIGN.md) so a circuit can be traced
end-to-end by one number.  Ids 0..15 are reserved for the control plane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro._types import NodeId, VcId
from repro.net.cell import TrafficClass

#: VC 0 carries pings/acks; VC 1 carries signaling; the rest of the low
#: ids are reserved.
PING_VC: VcId = 0
SIGNALING_VC: VcId = 1
FIRST_DATA_VC: VcId = 16


class CircuitState(enum.Enum):
    SETTING_UP = "setting_up"
    ESTABLISHED = "established"
    PAGED_OUT = "paged_out"
    TORN_DOWN = "torn_down"
    BROKEN = "broken"  # path crossed a failed link; awaiting reroute


@dataclass
class VirtualCircuit:
    """One unidirectional stream of cells between two hosts."""

    vc: VcId
    source: NodeId
    destination: NodeId
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT
    state: CircuitState = CircuitState.SETTING_UP
    cells_per_frame: int = 0  # > 0 only for guaranteed circuits
    cells_sent: int = 0
    cells_delivered: int = 0
    established_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<VC {self.vc} {self.source}->{self.destination} "
            f"{self.traffic_class.value} {self.state.value}>"
        )


class VcAllocator:
    """Hands out network-unique virtual circuit ids."""

    def __init__(self, first: VcId = FIRST_DATA_VC) -> None:
        if first < FIRST_DATA_VC:
            raise ValueError(
                f"data VCs start at {FIRST_DATA_VC}; got first={first}"
            )
        self._next = first

    def allocate(self) -> VcId:
        vc = self._next
        self._next += 1
        return vc
