"""Hop-by-hop virtual-circuit setup and teardown.

Section 2: "When a new virtual circuit is to be created, a cell
containing the ids of the source and destination hosts is sent along a
separate signaling circuit.  When this cell arrives at a switch, it is
passed to the processor on the line card where it arrived.  Software
there chooses the outgoing port for the circuit (based on the topology
information obtained during reconfiguration) and adds the virtual circuit
to the line card's routing table.  Cells for the new virtual circuit may
be sent immediately after the setup cell.  If they arrive at a switch
before the virtual circuit is established there, they will be buffered
until the routing table entry is filled in."

Each switch routes the setup cell itself (hop by hop) using its own
topology view; the ``gone_down`` flag carried in the request keeps the
concatenation of per-hop decisions inside the up*/down* discipline.
:func:`choose_output` is that per-hop decision, for admission, local
reroute and AN1 packets too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from repro._types import NodeId, VcId
from repro.core.routing.paths import RoutingError, port_on
from repro.net.cell import TrafficClass
from repro.net.topology import Edge


@dataclass(frozen=True)
class SetupRequest:
    """The setup cell's payload."""

    vc: VcId
    source: NodeId
    destination: NodeId
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT
    #: has the path taken a down traversal yet (up*/down* bookkeeping)?
    gone_down: bool = False
    #: hops already taken (loop/diagnostics guard).
    hop_count: int = 0


@dataclass(frozen=True)
class TeardownRequest:
    vc: VcId


@dataclass(frozen=True)
class PageOut:
    """Extension (section 2): the upstream switch released this circuit's
    resources; the receiver may cascade."""

    vc: VcId


class SignalingTransport:
    """What the signaling agent needs from its switch (duck-typed).

    - ``route_computer()``: the current
      :class:`~repro.core.routing.paths.RouteComputer` (or ``None`` before
      the first reconfiguration completes),
    - ``port_facing(host)``: local port whose working link reaches
      ``host``, if any,
    - ``install_circuit(vc, in_port, out_port, request)``: create the
      routing-table entry and per-VC buffers,
    - ``remove_circuit(vc)``: tear state down, returning the out port
      the circuit used (``None`` if it or its routing entry is gone),
    - ``send_signaling(port_index, message)``: transmit a signaling cell.
    """

    def route_computer(self):  # pragma: no cover - interface
        raise NotImplementedError

    def port_facing(
        self, host: NodeId
    ) -> Optional[int]:  # pragma: no cover - interface
        raise NotImplementedError

    def install_circuit(
        self, vc, in_port, out_port, request
    ):  # pragma: no cover - interface
        raise NotImplementedError

    def remove_circuit(self, vc):  # pragma: no cover - interface
        raise NotImplementedError

    def send_signaling(
        self, port_index, message
    ):  # pragma: no cover - interface
        raise NotImplementedError


def choose_output(
    node,
    here: NodeId,
    destination: NodeId,
    gone_down: bool,
    blocked_edges: FrozenSet[Edge] = frozenset(),
) -> Optional[Tuple[int, bool]]:
    """The next-hop decision every switch makes for a circuit (setup,
    admission, local reroute) or an AN1 packet headed to ``destination``.

    ``node`` is any object with ``route_computer()`` and
    ``port_facing(host)`` (a :class:`SignalingTransport`); ``here`` is its
    switch.  A working cable straight to the host wins; otherwise the
    hop is the first of the shortest legal continuation to the host's
    switch.  Nothing crosses ``blocked_edges``.  Returns
    ``(out_port, gone_down after this hop)``, or ``None`` when no legal
    continuation exists (e.g. the view is stale or up*/down* forbids
    every remaining direction).
    """
    host_port = node.port_facing(destination)
    if host_port is not None and not (
        blocked_edges and any((here, host_port) in e for e in blocked_edges)
    ):
        return host_port, gone_down
    computer = node.route_computer()
    if computer is None:
        return None
    try:
        dest_switch, _ = computer.attachment(destination)
    except RoutingError:
        return None
    if dest_switch == here:
        # The view says the host is here but it is not cabled (stale
        # view, dead or blocked host link).
        return None
    orientation = computer.orientation
    hop = orientation.next_hop(here, dest_switch, gone_down, blocked_edges)
    if hop is None:
        return None
    _, edge = hop
    return (
        port_on(edge, here),
        gone_down or not orientation.is_up_traversal(edge, here),
    )


class SignalingAgent:
    """One switch's circuit-setup software."""

    def __init__(self, node_id: NodeId, transport: SignalingTransport, max_hops: int = 64) -> None:
        self.node_id = node_id
        self.transport = transport
        self.max_hops = max_hops
        self.setups_handled = 0
        self.setups_failed = 0
        self.teardowns_handled = 0

    # ------------------------------------------------------------------
    def handle(self, in_port: int, message) -> None:
        if isinstance(message, SetupRequest):
            self._handle_setup(in_port, message)
        elif isinstance(message, TeardownRequest):
            self._handle_teardown(in_port, message)
        else:
            raise TypeError(f"unknown signaling message {message!r}")

    def _handle_setup(self, in_port: int, request: SetupRequest) -> None:
        self.setups_handled += 1
        if request.hop_count >= self.max_hops:
            self.setups_failed += 1
            return
        decision = choose_output(
            self.transport, self.node_id, request.destination, request.gone_down
        )
        if decision is None:
            self.setups_failed += 1
            return
        out_port, next_gone_down = decision
        self.transport.install_circuit(request.vc, in_port, out_port, request)
        forwarded = replace(
            request,
            gone_down=next_gone_down,
            hop_count=request.hop_count + 1,
        )
        self.transport.send_signaling(out_port, forwarded)

    def _handle_teardown(self, in_port: int, request: TeardownRequest) -> None:
        self.teardowns_handled += 1
        out_port = self.transport.remove_circuit(request.vc)
        if out_port is not None:
            self.transport.send_signaling(out_port, request)
