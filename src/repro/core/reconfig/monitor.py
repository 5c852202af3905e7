"""Per-port link monitoring: pings, acks, and failure detection.

Section 2: "switch software monitors the links by regularly pinging each
neighbor and checking that a correct acknowledgment is received.  If this
test fails too frequently, a working link is changed to the dead state.
Likewise, a dead link's state makes the transition to working if its
error rate is acceptably low for a long enough time."

A :class:`PortMonitor` sends a ping out its port every ``ping_interval``;
the neighbor answers immediately with an ack carrying its identity (this
doubles as the neighbor-discovery query of the reconfiguration algorithm:
"each node knows the identity of its neighbors; this information can be
obtained by sending a query out each port").  ``miss_threshold``
consecutive unanswered pings are reported to the port's
:class:`~repro.core.reconfig.skeptic.Skeptic` as a failure; any answered
ping is reported as (candidate) recovery.  The *skeptic* decides when the
published link verdict actually changes.

Each ping's ack timeout is a kernel event that the ack cancels, so on a
healthy line only the pings themselves are dispatched.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro._types import NodeId
from repro.core.reconfig.skeptic import Skeptic
from repro.net.cell import BEST_EFFORT, PING, Cell
from repro.net.port import Port
from repro.sim.kernel import Event, Simulator


class PingPayload(NamedTuple):
    """Carried by PING cells; echoed (plus responder identity) in acks."""

    sender: NodeId
    sender_port: int
    seq: int


class PingAckPayload(NamedTuple):
    sender: NodeId
    sender_port: int
    seq: int
    responder: NodeId
    responder_port: int


class PortMonitor:
    """Liveness monitoring for one cabled port."""

    def __init__(
        self,
        sim: Simulator,
        owner_id: NodeId,
        port: Port,
        skeptic: Skeptic,
        ping_interval_us: float = 1_000.0,
        ack_timeout_us: float = 500.0,
        miss_threshold: int = 3,
        start_offset_us: float = 0.0,
        on_neighbor: Optional[Callable[[], None]] = None,
    ) -> None:
        if ack_timeout_us >= ping_interval_us:
            raise ValueError(
                "ack timeout must be shorter than the ping interval"
            )
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {miss_threshold}")
        self.sim = sim
        self.owner_id = owner_id
        self.port = port
        self.skeptic = skeptic
        self.ping_interval_us = ping_interval_us
        self.ack_timeout_us = ack_timeout_us
        self.miss_threshold = miss_threshold
        self._start_offset_us = start_offset_us
        self.neighbor: Optional[Tuple[NodeId, int]] = None
        #: called when an ack names a different neighbour than the last.
        self.on_neighbor = on_neighbor
        self._seq = 0
        #: unanswered pings: seq -> their pending timeout event.
        self._outstanding: Dict[int, Event] = {}
        self._misses = 0
        self.pings_sent = 0
        self.acks_received = 0
        self._started = False
        # Records (ours and the skeptic's) name the owner, e.g.
        # "switch.s3", and carry the port.
        self._label = owner_id.label
        skeptic.bind(sim, self._label, port.index)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.schedule(self._start_offset_us, self._send_ping)

    def _send_ping(self) -> None:
        self._seq += 1
        seq = self._seq
        sim = self.sim
        port = self.port
        self.pings_sent += 1
        payload = PingPayload(self.owner_id, port.index, seq)
        port.send(Cell(0, PING, BEST_EFFORT, payload))
        self._outstanding[seq] = sim.schedule(
            self.ack_timeout_us, self._check_timeout, seq
        )
        sim.schedule(self.ping_interval_us, self._send_ping)
        # Let the skeptic's probation and decay timers advance.
        skeptic = self.skeptic
        if not skeptic.at_rest:
            skeptic.tick(sim.now)

    def _check_timeout(self, seq: int) -> None:
        del self._outstanding[seq]
        self._misses += 1
        # Tracer-only: a dead link times out every ping interval, which
        # would flood the flight recorder's rings.
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now, "reconfig", self._label, "monitor.timeout",
                port=self.port.index, seq=seq, misses=self._misses,
                threshold=self.miss_threshold,
            )
        if self._misses >= self.miss_threshold:
            self.skeptic.report_failure(self.sim.now)

    def on_ack(self, payload: PingAckPayload) -> None:
        """Called by the owning node when a PING_ACK for this port arrives."""
        timeout = self._outstanding.pop(payload.seq, None)
        if timeout is None:
            return  # late or duplicate ack
        timeout.cancel()
        self.acks_received += 1
        self._misses = 0
        neighbor = (payload.responder, payload.responder_port)
        if neighbor != self.neighbor:
            self.neighbor = neighbor
            if self.on_neighbor is not None:
                self.on_neighbor()
        skeptic = self.skeptic
        if not skeptic.at_rest:
            now = self.sim.now
            skeptic.report_recovery(now)
            skeptic.tick(now)

    # ------------------------------------------------------------------
    @property
    def verdict(self):
        return self.skeptic.verdict

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PortMonitor {self.port.label} neighbor={self.neighbor} "
            f"verdict={self.skeptic.verdict.value}>"
        )
