"""Guaranteed (Continuous Bit Rate) traffic: frames, schedules, admission.

Section 4 of the paper: bandwidth reservations are expressed in cells per
1024-slot *frame*; a per-switch schedule assigns reserved (input, output)
pairs to slots; the Slepian-Duguid theorem guarantees that any reservation
set that over-commits no link can be scheduled, and its proof gives the
incremental insertion algorithm (Figure 3).  Admission and route selection
are performed by the "bandwidth central" service.
"""

from repro.core.guaranteed.bandwidth_central import (
    BandwidthCentral,
    Reservation,
    ReservationDenied,
)
from repro.core.guaranteed.distributed import (
    DistributedAdmissionAgent,
    ReserveConfirm,
    ReserveReject,
    ReserveRequest,
)
from repro.core.guaranteed.nested_frames import NestedFrameSchedule
from repro.core.guaranteed.packing import (
    make_policy_schedule,
    packed_schedule,
    spread_schedule,
)
from repro.core.guaranteed.frames import FrameSchedule, ScheduleError, figure2_schedule
from repro.core.guaranteed.latency import (
    buffer_requirement_cells,
    guaranteed_latency_bound_us,
)
from repro.core.guaranteed.slepian_duguid import (
    InsertionTrace,
    insert_cell,
    insert_reservation,
    remove_cell,
)

__all__ = [
    "BandwidthCentral",
    "DistributedAdmissionAgent",
    "FrameSchedule",
    "InsertionTrace",
    "NestedFrameSchedule",
    "Reservation",
    "ReservationDenied",
    "ReserveConfirm",
    "ReserveReject",
    "ReserveRequest",
    "ScheduleError",
    "make_policy_schedule",
    "packed_schedule",
    "spread_schedule",
    "buffer_requirement_cells",
    "figure2_schedule",
    "guaranteed_latency_bound_us",
    "insert_cell",
    "insert_reservation",
    "remove_cell",
]
