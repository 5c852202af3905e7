"""Messages of the three-phase reconfiguration algorithm.

All four ride in :class:`~repro.net.cell.CellKind.RECONFIG` control cells
between adjacent switches.  Every message carries the epoch tag of the
reconfiguration it belongs to; receivers discard messages from superseded
tags.

The messages are named tuples: cheap to build and hash.  A tuple
compares equal to any tuple with the same fields -- ``InvitationAck(t,
False) == Invitation(t, 0)`` -- so receivers dispatch on ``isinstance``,
never on equality.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple

from repro.core.reconfig.epoch import EpochTag
from repro.net.topology import Edge


class Invitation(NamedTuple):
    """Propagation phase: "it invites each of its neighbors to join the
    tree".

    ``depth`` is the inviter's depth in the propagation-order tree; it
    rides along so each switch learns its own depth, letting the E4
    benchmark compare the propagation-order tree against a true
    breadth-first tree (the paper: "the tree obtained is usually very
    close to a breadth-first tree").
    """

    tag: EpochTag
    depth: int = 0


class InvitationAck(NamedTuple):
    """"Each invitation is acknowledged with an indication of whether it
    was accepted or declined."""

    tag: EpochTag
    accepted: bool


class TopologyReport(NamedTuple):
    """Collection phase: the subtree's union of locally-known edges,
    passed from child to parent."""

    tag: EpochTag
    edges: FrozenSet[Edge]


class TopologyDistribute(NamedTuple):
    """Distribution phase: the complete topology, passed from parent to
    children."""

    tag: EpochTag
    edges: FrozenSet[Edge]
