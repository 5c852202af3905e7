"""Physical and protocol constants from the paper.

All times are microseconds, matching the library-wide convention.
"""

from __future__ import annotations

#: ATM cell: 48 bytes of data plus a 5-byte header (section 1).
CELL_PAYLOAD_BYTES = 48
CELL_HEADER_BYTES = 5
CELL_BYTES = CELL_PAYLOAD_BYTES + CELL_HEADER_BYTES
CELL_BITS = CELL_BYTES * 8

#: AN2 link rates (section 1): 622 Mbit/s trunk links, 155 Mbit/s host links.
FAST_LINK_BPS = 622_000_000
SLOW_LINK_BPS = 155_000_000
#: AN1 link rate (section 1), for the AN1-flavoured experiments.
AN1_LINK_BPS = 100_000_000

#: Cell transmission time on a fast link -- the paper's "half microsecond
#: required to transmit a cell" (section 3).
FAST_CELL_TIME_US = CELL_BITS / FAST_LINK_BPS * 1e6  # ~0.68 us
SLOW_CELL_TIME_US = CELL_BITS / SLOW_LINK_BPS * 1e6  # ~2.7 us

#: Cut-through delay across a switch with no contention (sections 1-2):
#: "the first bit of a packet leaves the switch 2 microseconds after it
#: arrives".
CUT_THROUGH_DELAY_US = 2.0

#: Switch radix (section 1): 16x16 crossbar, 12 ports in AN1.
AN2_SWITCH_PORTS = 16
AN1_SWITCH_PORTS = 12
#: Depth of each AN1 input FIFO, in packets.
AN1_FIFO_PACKETS = 64

#: Guaranteed-traffic frames (section 4): 1024 cell slots per frame.
FRAME_SLOTS = 1024
#: Nested-frame re-ordering unit proposed in section 4.
NESTED_FRAME_SLOTS = 128

#: Frame time on a fast link, in microseconds (~0.7 ms; the paper quotes
#: "less than half a millisecond" for 1 Gbit/s links).
FRAME_TIME_US = FRAME_SLOTS * FAST_CELL_TIME_US

#: PIM iterations run by the AN2 hardware (section 3).
AN2_PIM_ITERATIONS = 3

#: Hardware-assisted ping turnaround at a switch or host controller.
PING_REPLY_DELAY_US = 1.0

#: Cells a line card holds for a circuit whose route is not installed
#: yet (or is paged out), per card.
PENDING_BUFFER_CAP = 1024

#: The paper's expected PIM bound: average iterations to a maximal match
#: <= log2(N) + 4/3, i.e. 5.32 for the 16x16 switch.
def pim_iteration_bound(ports: int) -> float:
    """``log2(N) + 4/3`` -- average iterations for a maximal match."""
    import math

    return math.log2(ports) + 4.0 / 3.0


#: Reconfiguration budget demonstrated on AN1 (section 1): the SRC LAN
#: reconfigures in under 200 ms.
RECONFIGURATION_BUDGET_US = 200_000.0

#: Propagation speed used to turn cable lengths into latencies:
#: ~5 ns/m in fibre (2e8 m/s).
PROPAGATION_US_PER_KM = 5.0

#: Maximum link length considered in section 5's buffer-cost estimate.
MAX_LINK_KM = 10.0
