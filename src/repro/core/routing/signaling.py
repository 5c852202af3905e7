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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro._types import NodeId, VcId
from repro.core.routing.paths import RoutingError, port_on
from repro.net.cell import TrafficClass


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
    - ``remove_circuit(vc)``: tear state down, returning the out ports
      the circuit used (every fanout branch; empty if it did not exist),
    - ``send_signaling(port_index, message)``: transmit a signaling cell.
    """

    def route_computer(self):  # pragma: no cover - interface
        raise NotImplementedError

    def port_facing(self, host: NodeId) -> Optional[int]:  # pragma: no cover
        raise NotImplementedError

    def install_circuit(self, vc, in_port, out_port, request):  # pragma: no cover
        raise NotImplementedError

    def remove_circuit(self, vc):  # pragma: no cover
        raise NotImplementedError

    def send_signaling(self, port_index, message):  # pragma: no cover
        raise NotImplementedError


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
        from repro.core.routing.multicast import MulticastSetupRequest

        if isinstance(message, SetupRequest):
            self._handle_setup(in_port, message)
        elif isinstance(message, MulticastSetupRequest):
            self._handle_multicast_setup(in_port, message)
        elif isinstance(message, TeardownRequest):
            self._handle_teardown(in_port, message)
        else:
            raise TypeError(f"unknown signaling message {message!r}")

    def _handle_multicast_setup(self, in_port: int, request) -> None:
        """Group the destination set by next hop and branch the setup.

        Each destination is routed exactly as a unicast setup would be;
        destinations sharing a next hop share a branch.  The union of
        branches is installed as one fanout entry.
        """
        from repro.core.routing.multicast import MulticastSetupRequest

        self.setups_handled += 1
        if request.hop_count >= self.max_hops:
            self.setups_failed += 1
            return
        branches: dict = {}
        unreachable = 0
        for destination in sorted(request.destinations):
            single = SetupRequest(
                vc=request.vc,
                source=request.source,
                destination=destination,
                gone_down=request.gone_down,
                hop_count=request.hop_count,
            )
            decision = self.choose_output(single)
            if decision is None:
                unreachable += 1
                continue
            out_port, next_gone_down, _ = decision
            branch = branches.setdefault(
                out_port, {"destinations": set(), "gone_down": next_gone_down}
            )
            branch["destinations"].add(destination)
        if not branches:
            self.setups_failed += 1
            return
        if unreachable:
            self.setups_failed += 1  # partial tree; reachable leaves join
        self.transport.install_multicast(
            request.vc, in_port, frozenset(branches), request
        )
        for out_port in sorted(branches):
            branch = branches[out_port]
            self.transport.send_signaling(
                out_port,
                MulticastSetupRequest(
                    vc=request.vc,
                    source=request.source,
                    destinations=frozenset(branch["destinations"]),
                    gone_down=branch["gone_down"],
                    hop_count=request.hop_count + 1,
                ),
            )

    def _handle_setup(self, in_port: int, request: SetupRequest) -> None:
        self.setups_handled += 1
        if request.hop_count >= self.max_hops:
            self.setups_failed += 1
            return
        decision = self.choose_output(request)
        if decision is None:
            self.setups_failed += 1
            return
        out_port, next_gone_down, reaches_host = decision
        self.transport.install_circuit(request.vc, in_port, out_port, request)
        forwarded = replace(
            request,
            gone_down=next_gone_down,
            hop_count=request.hop_count + 1,
        )
        self.transport.send_signaling(out_port, forwarded)

    def choose_output(
        self, request: SetupRequest
    ) -> Optional[Tuple[int, bool, bool]]:
        """Pick the outgoing port for a circuit to ``request.destination``.

        Returns (out_port, gone_down after this hop, is final hop) or
        ``None`` when no legal continuation exists (e.g. the view is stale
        or up*/down* forbids every remaining direction).
        """
        host_port = self.transport.port_facing(request.destination)
        if host_port is not None:
            return host_port, request.gone_down, True
        computer = self.transport.route_computer()
        if computer is None:
            return None
        try:
            dest_switch, _ = computer.attachment(request.destination)
        except RoutingError:
            return None
        if dest_switch == self.node_id:
            # The view says the host is here but it is not cabled (stale
            # view or dead host link).
            return None
        hop = computer.orientation.next_hop(
            self.node_id, dest_switch, arrived_downward=request.gone_down
        )
        if hop is None:
            return None
        neighbor, edge = hop
        out_port = port_on(edge, self.node_id)
        traversal_down = not computer.orientation.is_up_traversal(
            edge, self.node_id
        )
        return out_port, request.gone_down or traversal_down, False

    def _handle_teardown(self, in_port: int, request: TeardownRequest) -> None:
        self.teardowns_handled += 1
        for out_port in self.transport.remove_circuit(request.vc):
            self.transport.send_signaling(out_port, request)
