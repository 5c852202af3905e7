"""Credit/buffer sizing from link round trips.

Section 5: "Suppose that a virtual circuit encounters no contention for
the links on its route.  The circuit should be able to transmit at the
full link rate, which would be impossible if the upstream switch on a
link ever ran out of credits.  To guarantee that it never does, it must
start with enough credits to cover a round-trip on the link...  Thus
enough buffers are needed for each virtual circuit to hold as many cells
as can be transmitted in one round-trip time on the link."

The E9 benchmark sweeps the per-VC credit allocation through and past
this bound and shows throughput saturating exactly at the round-trip
size.
"""

from __future__ import annotations

import math

from repro.constants import CELL_BITS, FAST_LINK_BPS, PROPAGATION_US_PER_KM


def round_trip_us(length_km: float, bps: float = FAST_LINK_BPS) -> float:
    """Round-trip time of a link: two propagation delays and one cell
    serialization each way."""
    if length_km < 0:
        raise ValueError(f"negative link length {length_km}")
    one_way = length_km * PROPAGATION_US_PER_KM
    cell_time = CELL_BITS / bps * 1e6
    return 2 * (one_way + cell_time)


def round_trip_cells(length_km: float, bps: float = FAST_LINK_BPS) -> int:
    """Cells transmittable in one round trip -- the credit floor for
    full-rate transmission on an uncontended circuit."""
    cell_time = CELL_BITS / bps * 1e6
    return max(1, math.ceil(round_trip_us(length_km, bps) / cell_time))


def credits_for_link(length_km: float, bps: float = FAST_LINK_BPS) -> int:
    """The static per-VC allocation AN2's first release would install:
    the round-trip size plus one cell of slack for timing quantization."""
    return round_trip_cells(length_km, bps) + 1

