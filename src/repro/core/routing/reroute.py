"""Local rerouting of circuits around failures.

Section 2: "it should often be possible to restrict participation [in a
reconfiguration] to switches 'near' the failing component, and to drop
cells only when the path of their virtual circuit goes through a failed
link.  In this case, the virtual circuit can be rerouted by sending a new
circuit setup cell from the point where the path was broken."

The mechanism lives in :meth:`repro.switch.switch.AN2Switch._reroute_port`
(enabled with ``SwitchConfig(enable_local_reroute=True)``).  A reroute
is the setup's own decision, :func:`repro.core.routing.signaling.choose_output`,
with the failed cable blocked and the circuit's gone-down bit kept, so a
circuit that has already gone down takes a down-only detour.  Guaranteed
circuits are not moved: the detour has no frame reservation, so the
switch counts them in ``broken_circuits`` and their re-admission is left
to the application.  This module provides analysis helpers used by the
E13 benchmark to verify the selectivity claim: only circuits whose path
crossed the failed link see any disruption.
"""

from __future__ import annotations

from typing import List, Tuple

from repro._types import NodeId
from repro.net.network import Network


def circuits_crossing(
    network: Network, a: NodeId, b: NodeId
) -> Tuple[List[int], List[int]]:
    """Partition established circuits into (crossing, not crossing) the
    link between ``a`` and ``b``, judged by installed routing entries."""
    crossing: List[int] = []
    clear: List[int] = []
    # det: allow(int VC keys inserted in ascending allocation order)
    for vc, circuit in network.circuits.items():
        if _vc_uses_link(network, vc, a, b):
            crossing.append(vc)
        else:
            clear.append(vc)
    return crossing, clear


def _vc_uses_link(network: Network, vc: int, a: NodeId, b: NodeId) -> bool:
    # det: allow(existence check over all switches; answer order-independent)
    for switch in network.switches.values():
        in_port = switch._vc_in_port.get(vc)
        if in_port is None:
            continue
        entry = switch.cards[in_port].routing_table.lookup(vc)
        if entry is None:
            continue
        # The inbound side (who feeds this card?), then the outbound.
        for port in (in_port, entry.out_port):
            neighbor = switch.neighbor(port)
            if neighbor is not None and {switch.node_id, neighbor[0]} == {a, b}:
                return True
    return False


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
