"""Local rerouting of circuits around failures.

Section 2: "it should often be possible to restrict participation [in a
reconfiguration] to switches 'near' the failing component, and to drop
cells only when the path of their virtual circuit goes through a failed
link.  In this case, the virtual circuit can be rerouted by sending a new
circuit setup cell from the point where the path was broken."

This is every switch's only behaviour on a DEAD verdict, in
:meth:`repro.switch.switch.AN2Switch._reroute_port`.  A reroute is the
setup's own decision, :func:`repro.core.routing.signaling.choose_output`,
with the failed cable blocked and the circuit's gone-down bit kept, so a
circuit that has already gone down takes a down-only detour.  A circuit
that cannot move -- a guaranteed one, whose detour has no frame
reservation, or one with no legal detour -- is broken: the switch
counts it in ``broken_circuits`` and drops (and counts) its cells for
the dead output until a later epoch's repair moves it or the cable's
WORKING verdict returns.  This module provides :func:`installed_path`, the
ground truth the tests use to verify the selectivity claim: only
circuits whose path crossed the failed link see any disruption.
"""

from __future__ import annotations

from typing import List

from repro._types import NodeId
from repro.net.network import Network


def installed_path(network: Network, vc: int, source: NodeId) -> List[NodeId]:
    """Walk the installed routing entries from the source host: the
    circuit's current physical path (post-reroute ground truth)."""
    path: List[NodeId] = [source]
    host = network.hosts[source]
    port = host.active_port
    peer = port.peer()
    guard = 0
    while peer is not None and guard < 64:
        guard += 1
        node = peer.node
        path.append(node.node_id)
        if node.node_id.is_host:
            break
        entry = node.cards[peer.index].routing_table.lookup(vc)  # type: ignore[attr-defined]
        if entry is None:
            break
        out_port = node.ports[entry.out_port]
        peer = out_port.peer()
    return path
