"""Base class for network nodes (switches and hosts)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro._types import NodeId, PortIndex
from repro.net.cell import Cell
from repro.net.port import Port
from repro.sim.kernel import Simulator

_MONITOR_INTERVALS = (
    "ping_interval_us",
    "ack_timeout_us",
    "ping_reply_delay_us",
    "skeptic_base_wait_us",
    "skeptic_decay_us",
)


def validate_device_config(
    config,
    positive: Sequence[str] = (),
    at_least_one: Sequence[str] = (),
    non_negative: Sequence[str] = (),
) -> None:
    """Reject a nonsensical ``SwitchConfig`` / ``HostConfig`` at
    construction with a ``ValueError`` naming the field, instead of a
    hang or a ``ZeroDivisionError`` deep in a run.  The monitoring fields
    both configs share are checked here; the arguments name the rest."""

    def check(names, ok, rule) -> None:
        for name in names:
            value = getattr(config, name)
            if value is not None and not ok(value):  # None: derived later
                raise ValueError(
                    f"{type(config).__name__}.{name}={value!r} must be {rule}"
                )

    check(positive, lambda v: v > 0, "> 0")
    check(at_least_one, lambda v: v >= 1, ">= 1")
    check((*_MONITOR_INTERVALS, *non_negative), lambda v: v >= 0, ">= 0")


class Node:
    """A device with an array of ports attached to a simulator.

    Subclasses implement :meth:`on_cell` -- the per-cell receive path --
    and may use :meth:`neighbor_ids` to learn who is cabled to them (the
    paper: "each node knows the identity of its neighbors; this
    information can be obtained by sending a query out each port"; we let
    nodes read the cable map directly, standing in for that query
    exchange, while the *state* of links is still only learned through
    the monitoring protocol).
    """

    def __init__(self, sim: Simulator, node_id: NodeId, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError(f"node needs at least one port, got {n_ports}")
        self.sim = sim
        self.node_id = node_id
        self.ports: List[Port] = [Port(self, i) for i in range(n_ports)]

    # ------------------------------------------------------------------
    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def port(self, index: PortIndex) -> Port:
        return self.ports[index]

    def free_port(self) -> Optional[Port]:
        """The lowest-index uncabled port, or ``None``."""
        for port in self.ports:
            if not port.connected:
                return port
        return None

    def neighbor_ids(self) -> Dict[PortIndex, NodeId]:
        """Map of port index -> neighbor node id, for cabled ports."""
        neighbors: Dict[PortIndex, NodeId] = {}
        for port in self.ports:
            peer = port.peer()
            if peer is not None:
                neighbors[port.index] = peer.node.node_id
        return neighbors

    # ------------------------------------------------------------------
    def on_cell(self, port: Port, cell: Cell) -> None:
        """Handle an arriving cell.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.node_id}>"
