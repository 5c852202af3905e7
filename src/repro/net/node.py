"""Base class for network nodes (switches and hosts), with the per-port
link monitoring every device runs."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import ClassVar, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro._types import NodeId, PortIndex
from repro.core.reconfig.monitor import PingAckPayload, PingPayload, PortMonitor
from repro.core.reconfig.skeptic import LinkVerdict, Skeptic
from repro.net.cell import BEST_EFFORT, PING_ACK, Cell, CellKind
from repro.net.port import Port
from repro.net.topology import Edge
from repro.sim.kernel import Simulator


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
    """Reject a nonsensical device config (a :class:`MonitorConfig`, a
    scenario's ``TrafficLoad``) at construction with a ``ValueError``
    naming the field, instead of a hang or a ``ZeroDivisionError`` deep
    in a run.  Every ``int`` field must hold an ``int`` (not a ``bool``)
    and every ``float`` field a finite number; the arguments name the
    fields whose range is checked."""
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

    check(positive, lambda v: v > 0, "> 0")
    check(at_least_one, lambda v: v >= 1, ">= 1")
    check(non_negative, lambda v: v >= 0, ">= 0")


@dataclasses.dataclass(kw_only=True)
class MonitorConfig:
    """Section 2's link monitor, which every device runs
    (:meth:`Node.start_monitors`): the ping period, the ack timeout, the
    misses that make a failure and the skeptic's hold-down.  Each device
    config extends it, and extends the three range rules with its own
    fields; :func:`validate_device_config` checks them all at once."""

    ping_interval_us: float = 1_000.0
    ack_timeout_us: float = 400.0
    miss_threshold: int = 3
    skeptic_base_wait_us: float = 10_000.0
    skeptic_max_level: int = 8
    skeptic_decay_us: float = 1_000_000.0

    POSITIVE: ClassVar[Tuple[str, ...]] = ()
    AT_LEAST_ONE: ClassVar[Tuple[str, ...]] = ("miss_threshold",)
    NON_NEGATIVE: ClassVar[Tuple[str, ...]] = (
        "ping_interval_us", "ack_timeout_us", "skeptic_base_wait_us",
        "skeptic_decay_us", "skeptic_max_level",
    )

    def __post_init__(self) -> None:
        validate_device_config(
            self, self.POSITIVE, self.AT_LEAST_ONE, self.NON_NEGATIVE
        )


class Node:
    """A device with an array of ports attached to a simulator.

    Subclasses implement :meth:`on_cell` -- the per-cell receive path.
    A node learns who is cabled to it only from the ping acks its port
    monitors receive (the paper: "each node knows the identity of its
    neighbors; this information can be obtained by sending a query out
    each port"), and what it knows of its links -- the neighbour on a
    port, whether the skeptic calls that link working, the edges it
    vouches for -- is read through the queries below.
    """

    def __init__(self, sim: Simulator, node_id: NodeId, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError(f"node needs at least one port, got {n_ports}")
        self.sim = sim
        self.node_id = node_id
        self.ports: List[Port] = [Port(self, i) for i in range(n_ports)]
        #: one per cabled port once :meth:`start_monitors` has run,
        #: inserted port-ascending.
        self.monitors: Dict[PortIndex, PortMonitor] = {}
        #: the software's processing delay (us) per cell kind: a cell of
        #: a kind named here is handled that long after it arrives, one
        #: of any other kind on arrival.  The link schedules the cell's
        #: one delivery event at arrival plus this delay.
        self.cell_delay_us: Dict[CellKind, float] = {}
        #: :meth:`local_edges`, until a verdict or a neighbour changes.
        self._local_edges: Optional[FrozenSet[Edge]] = None

    # ------------------------------------------------------------------
    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def port(self, index: PortIndex) -> Port:
        return self.ports[index]

    def start(self) -> None:
        """Boot the device; one with nothing to run at boot does nothing."""

    # ------------------------------------------------------------------
    # link monitoring (section 2)
    # ------------------------------------------------------------------
    def start_monitors(self, config, jitter) -> None:
        """Boot link monitoring on every cabled port, port-ascending: a
        skeptic publishing to :meth:`_on_verdict` and a started monitor
        feeding it, tuned by the monitoring fields every device config
        carries.  Each first ping is offset by one draw from ``jitter``,
        in port order, so that neighbours do not ping in lock-step."""
        for port in self.ports:
            if not port.connected:
                continue
            skeptic = Skeptic(
                base_wait_us=config.skeptic_base_wait_us,
                max_level=config.skeptic_max_level,
                decay_interval_us=config.skeptic_decay_us,
                on_verdict=functools.partial(
                    self._verdict_published, port.index
                ),
            )
            monitor = PortMonitor(
                self.sim,
                self.node_id,
                port,
                skeptic,
                ping_interval_us=config.ping_interval_us,
                ack_timeout_us=config.ack_timeout_us,
                miss_threshold=config.miss_threshold,
                start_offset_us=jitter.uniform(0.0, config.ping_interval_us),
                on_neighbor=self._forget_link_views,
            )
            monitor.start()
            self.monitors[port.index] = monitor

    def _forget_link_views(self) -> None:
        """A verdict or a neighbour identity changed: the cached answers
        of :meth:`local_edges` (and a subclass's) are stale."""
        self._local_edges = None

    def _verdict_published(
        self, port_index: PortIndex, verdict: LinkVerdict, now: float
    ) -> None:
        self._forget_link_views()
        self._on_verdict(port_index, verdict, now)

    def _on_verdict(
        self, port_index: PortIndex, verdict: LinkVerdict, now: float
    ) -> None:  # pragma: no cover - interface
        """The skeptic on ``port_index`` published a new verdict.  The
        queries below read it either way; subclasses act on it."""

    def wire_restored(self, port_index: PortIndex) -> None:
        """The cable on ``port_index`` came back up (the line card sees
        light again, before any verdict).  Subclasses that wait on a
        wire act on it."""

    def _send_ping_ack(self, port_index: PortIndex, ping: PingPayload) -> None:
        """Answer a ping with our identity (the neighbour query)."""
        port = self.ports[port_index]
        if not port.connected:
            return
        ack = PingAckPayload(
            ping.sender, ping.sender_port, ping.seq, self.node_id, port_index
        )
        port.send(Cell(0, PING_ACK, BEST_EFFORT, ack))

    def _accept_ping_ack(
        self, port_index: PortIndex, ack: PingAckPayload
    ) -> None:
        monitor = self.monitors.get(port_index)
        if monitor is not None:
            monitor.on_ack(ack)

    def neighbor(self, port_index: PortIndex) -> Optional[Tuple[NodeId, int]]:
        """``(node, port)`` that last acked a ping on ``port_index``,
        kept through a DEAD verdict so that a dead cable can still be
        named; ``None`` before the first ack or on an unmonitored port."""
        monitor = self.monitors.get(port_index)
        return None if monitor is None else monitor.neighbor

    def working_neighbor(
        self, port_index: PortIndex
    ) -> Optional[Tuple[NodeId, int]]:
        """:meth:`neighbor`, while the port's skeptic says WORKING."""
        monitor = self.monitors.get(port_index)
        if monitor is None or monitor.verdict is not LinkVerdict.WORKING:
            return None
        return monitor.neighbor

    def edge_on_port(self, port_index: PortIndex) -> Optional[Edge]:
        """The cable on ``port_index`` as its last ack named it, whatever
        its verdict now."""
        neighbor = self.neighbor(port_index)
        if neighbor is None:
            return None
        end = (self.node_id, port_index)
        return (end, neighbor) if end <= neighbor else (neighbor, end)

    def local_edges(self) -> FrozenSet[Edge]:
        """Edges this node vouches for: every port with a working,
        identified neighbour, hosts included.  Cached until a verdict or
        a neighbour identity changes."""
        edges = self._local_edges
        if edges is None:
            edges = self._local_edges = frozenset(
                self.edge_on_port(index)
                for index in self.monitors
                if self.working_neighbor(index) is not None
            )
        return edges

    def port_facing(self, node: NodeId) -> Optional[int]:
        """The lowest port whose working neighbour is ``node``."""
        for index in self.monitors:
            neighbor = self.working_neighbor(index)
            if neighbor is not None and neighbor[0] == node:
                return index
        return None

    # ------------------------------------------------------------------
    def on_cell(
        self, port: Port, cell: Cell
    ) -> None:  # pragma: no cover - interface
        """Handle an arriving cell.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.node_id}>"
