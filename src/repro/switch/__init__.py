"""The AN2 switch model.

One scheduling core -- :class:`~repro.switch.crossbar.Crossbar`: the
request matrix kept on edges plus the bitmask PIM kernel that reads it
-- driven at two granularities (see DESIGN.md section 4):

- :mod:`repro.switch.fabric` -- a slot-synchronous single-switch
  simulator used by the crossbar-scheduling experiments (fast; exactly
  the paper's slotted 16x16 crossbar semantics): the core driven by a
  slot loop over per-(input, output) queues,
- :mod:`repro.switch.switch` (with :mod:`~repro.switch.linecard`,
  :mod:`~repro.switch.buffers`, :mod:`~repro.switch.routing_table`) --
  the full event-driven switch that participates in the network-level
  experiments: reconfiguration, signaling, credit flow control, and
  guaranteed frames; the core driven by ports, credits and the frame
  schedule.
"""

from repro.switch.an1 import An1Config, An1Host, An1Network, An1Switch
from repro.switch.fabric import (
    FabricMetrics,
    FifoFabric,
    OutputQueueFabric,
    VoqFabric,
    run_fabric,
)
from repro.switch.switch import AN2Switch, SwitchConfig

__all__ = [
    "AN2Switch",
    "An1Config",
    "An1Host",
    "An1Network",
    "An1Switch",
    "FabricMetrics",
    "FifoFabric",
    "OutputQueueFabric",
    "SwitchConfig",
    "VoqFabric",
    "run_fabric",
]
