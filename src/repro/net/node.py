"""Base class for network nodes (switches and hosts)."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import Dict, List, Optional, Sequence, Tuple

from repro._types import NodeId, PortIndex
from repro.net.cell import Cell
from repro.net.port import Port
from repro.sim.kernel import Simulator

#: monitoring fields the device configs share, each ``>= 0`` where
#: present (``miss_threshold``, which all have, must be ``>= 1``).
_MONITOR_FIELDS = (
    "ping_interval_us",
    "ack_timeout_us",
    "skeptic_base_wait_us",
    "skeptic_decay_us",
    "skeptic_max_level",
)


@functools.lru_cache(maxsize=None)
def _numeric_fields(cls) -> Tuple[Tuple[str, type], ...]:
    """``(name, int or float)`` for each field annotated ``int`` /
    ``float`` or their ``Optional``."""
    hints = typing.get_type_hints(cls)
    numeric = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        kinds = {int, float} & set(typing.get_args(hint) or (hint,))
        if len(kinds) == 1:
            numeric.append((field.name, kinds.pop()))
    return tuple(numeric)


def validate_device_config(
    config,
    positive: Sequence[str] = (),
    at_least_one: Sequence[str] = (),
    non_negative: Sequence[str] = (),
) -> None:
    """Reject a nonsensical device config (``SwitchConfig``,
    ``HostConfig``, ``An1Config``) at construction with a ``ValueError``
    naming the field, instead of a hang or a ``ZeroDivisionError`` deep
    in a run.  Every ``int`` field must hold an ``int`` (not a ``bool``)
    and every ``float`` field a finite number; the monitoring fields the
    configs share are range-checked here, the arguments name the rest."""
    kind = type(config).__name__

    def reject(name, rule) -> None:
        raise ValueError(
            f"{kind}.{name}={getattr(config, name)!r} must be {rule}"
        )

    for name, hint in _numeric_fields(type(config)):
        value = getattr(config, name)
        if value is None:  # derived later
            continue
        if hint is int and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            reject(name, "an integer")
        if isinstance(value, float) and not math.isfinite(value):
            reject(name, "finite")

    def check(names, ok, rule) -> None:
        for name in names:
            value = getattr(config, name)
            if value is not None and not ok(value):
                reject(name, rule)

    shared = [name for name in _MONITOR_FIELDS if hasattr(config, name)]
    check(positive, lambda v: v > 0, "> 0")
    check(("miss_threshold", *at_least_one), lambda v: v >= 1, ">= 1")
    check((*shared, *non_negative), lambda v: v >= 0, ">= 0")


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
