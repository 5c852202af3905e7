"""Epoch tags: the total order that serializes overlapping reconfigurations.

Section 2: "each reconfiguration message is tagged with an epoch number
and the id of the initiating switch.  Each switch maintains a copy of the
largest tag it has seen, where the ordering is based first on epoch number
and then on switch id.  When a switch initiates a configuration, it uses
an epoch number one greater than the one in its stored tag.  When a switch
receives an invitation to join a configuration tree, it ignores it unless
the message tag is larger than its currently stored value.  In that case,
it aborts its activity in the earlier configuration and joins the new
one."
"""

from __future__ import annotations

from typing import NamedTuple

from repro._types import NodeId


class EpochTag(NamedTuple):
    """(epoch, initiator id), ordered lexicographically.

    Tuple order is exactly the paper's ordering: epoch number first,
    initiating switch id second.  NodeId is itself totally ordered.
    """

    epoch: int
    initiator: NodeId

    def successor(self, initiator: NodeId) -> "EpochTag":
        """The tag a switch uses to start a new reconfiguration: "an epoch
        number one greater than the one in its stored tag"."""
        return EpochTag(self.epoch + 1, initiator)

    def __str__(self) -> str:
        return f"e{self.epoch}@{self.initiator}"


#: The tag every switch boots with; any real reconfiguration exceeds it.
GENESIS = EpochTag(0, NodeId("switch", -1))
