"""Route computation over a discovered topology view.

A :class:`RouteComputer` wraps a view with the up*/down* orientation:
the orientation answers every path question (signaling's
:func:`~repro.core.routing.signaling.choose_output` asks it for one next
hop at a time), and :meth:`RouteComputer.attachment` names the switch a
host's traffic enters through.  Because orientations and tie-breaks are
deterministic functions of (view, root), all switches route consistently
-- so the switches of one installation that complete the same epoch view
from the same initiator share one computer, built by whichever of them
completes it first (see ``SwitchNode._on_topology_ready``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro._types import NodeId
from repro.core.routing.updown import UpDownOrientation
from repro.net.topology import Edge, TopologyView


class RoutingError(Exception):
    """No usable route (disconnection, unknown host, illegal path)."""


def port_on(edge: Edge, node: NodeId) -> int:
    """The port number ``node`` uses on ``edge``."""
    (node_a, port_a), (node_b, port_b) = edge
    if node == node_a:
        return port_a
    if node == node_b:
        return port_b
    raise ValueError(f"{node} is not an endpoint of {edge}")


class RouteComputer:
    """One view's up*/down* orientation and host attachments.

    ``epoch`` labels the reconfiguration epoch that built this computer
    (the stringified :class:`~repro.core.reconfig.epoch.EpochTag`); a
    later epoch that agrees on the same view from the same initiator
    reuses it, label and all.  The orientation's route cache lives as
    long as the computer: a new ``(view, root)`` gets a new computer and
    an empty memo.
    """

    def __init__(
        self,
        view: TopologyView,
        root: NodeId,
        epoch: Optional[str] = None,
    ) -> None:
        self.view = view
        self.root = root
        self.epoch = epoch
        self.orientation = UpDownOrientation(view, root, epoch=epoch)
        self._host_ports = view.host_ports()

    def report_to(self, probes) -> None:
        """Point ``probes``' ``route_cache_hits`` / ``route_cache_misses``
        gauges at this computer's memo counters (snapshot-time reads; the
        routing hot path is untouched).  The gauges hold the orientation,
        not the computer, so they do not keep a shared computer alive."""
        orientation = self.orientation
        probes.gauge("route_cache_hits", lambda: orientation.cache_hits)
        probes.gauge("route_cache_misses", lambda: orientation.cache_misses)

    # ------------------------------------------------------------------
    def attachment(
        self, host: NodeId, preferred_port: int = 0
    ) -> Tuple[NodeId, Edge]:
        """The (switch, cable) a host's traffic enters the network through.

        Prefers the host's port ``preferred_port`` (the active link; "Only
        one link is in active use at any time"), falling back to any other
        attachment.
        """
        attachments = self._host_ports.get(host)
        if not attachments:
            raise RoutingError(f"host {host} has no attachments in the view")
        for host_port, switch, switch_port in attachments:
            if host_port == preferred_port:
                return switch, self._edge_for(host, host_port, switch, switch_port)
        host_port, switch, switch_port = attachments[0]
        return switch, self._edge_for(host, host_port, switch, switch_port)

    def _edge_for(
        self, host: NodeId, host_port: int, switch: NodeId, switch_port: int
    ) -> Edge:
        a, b = (host, host_port), (switch, switch_port)
        return (a, b) if a <= b else (b, a)
