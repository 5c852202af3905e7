"""The three-phase distributed reconfiguration algorithm.

Section 2, condensed:

1. **Propagation**: the initiator (the switch that detected a state
   change) becomes the root and invites its neighbors; a switch accepts
   the first invitation it receives (becoming the inviter's child),
   declines later ones, and invites all its other neighbors.  Every
   invitation is acknowledged with accept/decline.
2. **Collection**: topology information flows up the tree; when the last
   child of a node has reported, the node forwards its subtree's union to
   its parent.  At the end the root knows the complete topology.
3. **Distribution**: the complete topology flows down the tree; at the
   end every switch knows it.

Overlapping reconfigurations are serialized by
:class:`~repro.core.reconfig.epoch.EpochTag`: a switch joins only
invitations whose tag exceeds its stored tag, aborting any earlier
participation, so "a switch that sees multiple configurations
participates in the one with the largest tag and eventually ignores all
others".

Liveness: if a link dies mid-reconfiguration, the lost message would
stall the epoch; the port monitors eventually publish the death, which
triggers a *new* epoch that supersedes the stalled one.  A watchdog
timeout provides the same guarantee against pathological loss.

The agent is transport-agnostic: it talks to its switch through the small
:class:`ReconfigTransport` duck-type, so unit tests can drive it with an
in-memory message bus and the network tests with real simulated cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence, Set

from repro._types import NodeId
from repro.core.reconfig.epoch import GENESIS, EpochTag
from repro.core.reconfig.messages import (
    Invitation,
    InvitationAck,
    TopologyDistribute,
    TopologyReport,
)
from repro.net.topology import Edge, TopologyView
from repro.sim.kernel import Event, Simulator
from repro.sim.signal import Signal


class ReconfigTransport:
    """What the agent needs from its host switch (duck-typed).

    - ``reconfig_ports()``: indices of ports currently cabled to *working*
      switch links (the neighbors to invite),
    - ``local_edges()``: the edges this switch can vouch for -- every
      working port's (self, port) <-> (neighbor, port) pair, hosts
      included,
    - ``send_reconfig(port_index, message)``: transmit a protocol message
      (the switch model adds line-card software latency).
    """

    def reconfig_ports(self) -> Sequence[int]:  # pragma: no cover - interface
        raise NotImplementedError

    def local_edges(self) -> AbstractSet[Edge]:  # pragma: no cover - interface
        raise NotImplementedError

    def send_reconfig(
        self, port_index: int, message
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class ReconfigStats:
    """Per-agent counters for the E4/E5 benchmarks."""

    initiated: int = 0
    participations: int = 0
    aborted: int = 0
    invitations_sent: int = 0
    messages_sent: int = 0
    completions: int = 0


class ReconfigurationAgent:
    """One switch's reconfiguration state machine."""

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        transport: ReconfigTransport,
        watchdog_us: float = 100_000.0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.transport = transport
        self.watchdog_us = watchdog_us
        self.stored_tag: EpochTag = GENESIS
        # Participation state for ``stored_tag`` (valid while ``active``).
        self.active = False
        self.parent_port: Optional[int] = None
        self._pending_acks: Set[int] = set()
        self._children: Set[int] = set()
        self._awaiting_reports: Set[int] = set()
        self._collected: Set[Edge] = set()
        self._reported_up = False
        self._watchdog: Optional[Event] = None
        # Results.
        self.view: Optional[TopologyView] = None
        self.view_tag: Optional[EpochTag] = None
        self.ready = Signal(f"{node_id}.topology_ready")
        #: fires with the new tag whenever this agent *joins* a
        #: configuration (triggering or accepting an invitation).  AN1
        #: uses this to drop all packets in transit: "all packets in
        #: transit are dropped when a reconfiguration begins".
        self.joined = Signal(f"{node_id}.reconfig_joined")
        self.stats = ReconfigStats()
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        #: depth of this node in the propagation-order tree (root = 0);
        #: measured by carrying depth in invitations.
        self.tree_depth: Optional[int] = None
        self._label = node_id.label

    # ------------------------------------------------------------------
    # external triggers
    # ------------------------------------------------------------------
    def trigger(self) -> EpochTag:
        """Start a new reconfiguration (link state change, boot...)."""
        tag = self.stored_tag.successor(self.node_id)
        self.stats.initiated += 1
        self.sim.note("reconfig", self._label, "epoch.trigger", tag=str(tag))
        self._join(tag, parent_port=None, depth=0)
        return tag

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, port_index: int, message) -> None:
        """Process a reconfiguration message that arrived on ``port_index``."""
        if isinstance(message, Invitation):
            self._handle_invitation(port_index, message)
        elif isinstance(message, InvitationAck):
            self._handle_ack(port_index, message)
        elif isinstance(message, TopologyReport):
            self._handle_report(port_index, message)
        elif isinstance(message, TopologyDistribute):
            self._handle_distribute(port_index, message)
        else:
            raise TypeError(f"unknown reconfiguration message {message!r}")

    def _handle_invitation(self, port_index: int, message: Invitation) -> None:
        if message.tag > self.stored_tag:
            # Join: accept the first invitation of a newer configuration.
            # The ack MUST precede the join: joining can immediately
            # complete this node's subtree and emit its TopologyReport on
            # the same (FIFO) link, and the parent only accepts reports
            # from ports it has recorded as children.
            self._send(port_index, InvitationAck(message.tag, True))
            self._join(message.tag, parent_port=port_index, depth=message.depth + 1)
        else:
            # Already in this configuration (or a newer one): decline.
            self._send(port_index, InvitationAck(message.tag, False))

    def _handle_ack(self, port_index: int, message: InvitationAck) -> None:
        if not self.active or message.tag != self.stored_tag:
            return
        if port_index not in self._pending_acks:
            return
        self._pending_acks.discard(port_index)
        if message.accepted:
            self._children.add(port_index)
            self._awaiting_reports.add(port_index)
        self._maybe_complete_subtree()

    def _handle_report(self, port_index: int, message: TopologyReport) -> None:
        if not self.active or message.tag != self.stored_tag:
            return
        if port_index not in self._awaiting_reports:
            return
        self._awaiting_reports.discard(port_index)
        self._collected |= message.edges
        self._maybe_complete_subtree()

    def _handle_distribute(
        self, port_index: int, message: TopologyDistribute
    ) -> None:
        if message.tag != self.stored_tag:
            return
        if self.parent_port is not None and port_index != self.parent_port:
            return
        self._finish(TopologyView(frozenset(message.edges)))

    # ------------------------------------------------------------------
    # state machine internals
    # ------------------------------------------------------------------
    def _join(self, tag: EpochTag, parent_port: Optional[int], depth: int) -> None:
        if self.active:
            self.stats.aborted += 1
        self._cancel_watchdog()
        self.stored_tag = tag
        self.active = True
        self.parent_port = parent_port
        self._children = set()
        self._awaiting_reports = set()
        self._collected = set(self.transport.local_edges())
        self._reported_up = False
        self.tree_depth = depth
        self.started_at = self.sim.now
        self.completed_at = None
        self.stats.participations += 1
        invite_ports = [
            p for p in self.transport.reconfig_ports() if p != parent_port
        ]
        self._pending_acks = set(invite_ports)
        for port_index in invite_ports:
            self._send(port_index, Invitation(tag, depth))
            self.stats.invitations_sent += 1
        if self.watchdog_us > 0:
            self._watchdog = self.sim.schedule(
                self.watchdog_us, self._watchdog_fired, tag
            )
        # An epoch superseded by a larger tag never gets its epoch.end;
        # the report tool shows one with begins and no end as superseded.
        self.sim.note(
            "reconfig", self._label, "epoch.begin",
            tag=str(tag), root=parent_port is None, depth=depth,
        )
        self.joined.fire(tag)
        self._maybe_complete_subtree()

    def _maybe_complete_subtree(self) -> None:
        if not self.active or self._reported_up:
            return
        if self._pending_acks or self._awaiting_reports:
            return
        # The whole subtree below (and including) this node has reported.
        if self.parent_port is None:
            # Root: phase 2 done -- it knows the complete topology.
            view = TopologyView(frozenset(self._collected))
            for child in sorted(self._children):
                self._send(child, TopologyDistribute(self.stored_tag, view.edges))
            self._finish(view)
        else:
            self._reported_up = True
            self._send(
                self.parent_port,
                TopologyReport(self.stored_tag, frozenset(self._collected)),
            )

    def _finish(self, view: TopologyView) -> None:
        # Distribution phase: pass the topology to the children (the root
        # already did so in _maybe_complete_subtree).
        if self.parent_port is not None:
            for child in sorted(self._children):
                self._send(child, TopologyDistribute(self.stored_tag, view.edges))
        self.active = False
        self._cancel_watchdog()
        previous = self.view
        self.view = view
        self.view_tag = self.stored_tag
        self.completed_at = self.sim.now
        self.stats.completions += 1
        old_edges = previous.edges if previous is not None else view.edges
        self.sim.note(
            "reconfig", self._label, "epoch.end",
            tag=str(self.view_tag), edges=len(view.edges),
            duration=self.sim.now - (self.started_at or 0.0),
            edges_added=len(view.edges - old_edges),
            edges_removed=len(old_edges - view.edges),
        )
        self.ready.fire((self.view_tag, view))

    def _watchdog_fired(self, tag: EpochTag) -> None:
        self._watchdog = None
        if self.active and self.stored_tag == tag:
            # The epoch stalled (a participant died or messages were lost
            # on a link whose death is not yet published).  Supersede it.
            self.sim.note("reconfig", self._label, "epoch.watchdog", tag=str(tag))
            self.trigger()

    def _cancel_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _send(self, port_index: int, message) -> None:
        self.stats.messages_sent += 1
        self.transport.send_reconfig(port_index, message)

    def __repr__(self) -> str:  # pragma: no cover
        state = "active" if self.active else "idle"
        return (
            f"<ReconfigurationAgent {self.node_id} {state} "
            f"tag={self.stored_tag}>"
        )
