"""Credit-based flow control and deadlock avoidance (section 5).

Best-effort traffic in AN2 never overflows a buffer: "Buffers for each
best-effort virtual circuit traversing the link are allocated at the
downstream switch.  The upstream switch maintains a credit balance...
Cells are only transmitted for circuits with non-zero credit balances."

- :mod:`repro.core.flowcontrol.credits` -- the per-VC state machines of
  Figure 4: the upstream *window* (balance, cumulative counters, and the
  upstream half of resynchronization) and the downstream *buffer pool*,
- :mod:`repro.core.flowcontrol.resync` -- the counter-exchange protocol
  that recovers credits lost to control-message corruption, and its two
  messages,
- :mod:`repro.core.flowcontrol.endpoint` -- one end of one link: the
  windows of circuits leaving through a port and the pools of circuits
  arriving on it, credit return, and both sides of the resync exchange.
  Every switch line card and every host port holds one; it is the only
  place a CREDIT cell is built or consumed,
- :mod:`repro.core.flowcontrol.sizing` -- round-trip credit sizing ("enough
  buffers... to hold as many cells as can be transmitted in one round-trip
  time on the link"),
- :mod:`repro.core.flowcontrol.deadlock` -- wait-for-graph construction and
  cycle detection, used to demonstrate why AN1 needed up*/down* routing
  and why AN2's per-VC buffers are deadlock-free.
"""

from repro.core.flowcontrol.credits import CreditError, DownstreamCredits, UpstreamCredits
from repro.core.flowcontrol.deadlock import WaitForGraph
from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.core.flowcontrol.sizing import (
    credits_for_link,
    round_trip_cells,
)

__all__ = [
    "CreditEndpoint",
    "CreditError",
    "DownstreamCredits",
    "UpstreamCredits",
    "WaitForGraph",
    "credits_for_link",
    "round_trip_cells",
]
