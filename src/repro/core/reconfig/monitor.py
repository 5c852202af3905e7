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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro._types import NodeId
from repro.core.reconfig.skeptic import LinkVerdict, Skeptic
from repro.net.cell import Cell, CellKind
from repro.net.port import Port
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class PingPayload:
    """Carried by PING cells; echoed (plus responder identity) in acks."""

    sender: NodeId
    sender_port: int
    seq: int


@dataclass(frozen=True)
class PingAckPayload:
    sender: NodeId
    sender_port: int
    seq: int
    responder: NodeId
    responder_port: int


def make_ack(request: PingPayload, responder: NodeId, responder_port: int) -> PingAckPayload:
    return PingAckPayload(
        sender=request.sender,
        sender_port=request.sender_port,
        seq=request.seq,
        responder=responder,
        responder_port=responder_port,
    )


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
        self._seq = 0
        self._outstanding: Dict[int, float] = {}
        self._misses = 0
        self.pings_sent = 0
        self.acks_received = 0
        self._started = False
        # Trace events (ours and the skeptic's) carry the port-qualified
        # component name, e.g. "s3.p2".
        self._trace_component = f"{owner_id}.p{port.index}"
        skeptic.bind_trace(sim, self._trace_component)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.schedule(self._start_offset_us, self._send_ping)

    def _send_ping(self) -> None:
        self._seq += 1
        seq = self._seq
        payload = PingPayload(self.owner_id, self.port.index, seq)
        self._outstanding[seq] = self.sim.now
        self.pings_sent += 1
        self.port.send(Cell(vc=0, kind=CellKind.PING, payload=payload))
        self.sim.schedule(self.ack_timeout_us, self._check_timeout, seq)
        self.sim.schedule(self.ping_interval_us, self._send_ping)
        # Let the skeptic's probation and decay timers advance.
        self.skeptic.tick(self.sim.now)

    def _check_timeout(self, seq: int) -> None:
        if seq not in self._outstanding:
            return
        del self._outstanding[seq]
        self._misses += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now, "reconfig", self._trace_component,
                "monitor.timeout", seq=seq, misses=self._misses,
                threshold=self.miss_threshold,
            )
        if self._misses >= self.miss_threshold:
            self.skeptic.report_failure(self.sim.now)

    def on_ack(self, payload: PingAckPayload) -> None:
        """Called by the owning node when a PING_ACK for this port arrives."""
        sent_at = self._outstanding.pop(payload.seq, None)
        if sent_at is None:
            return  # late or duplicate ack
        self.acks_received += 1
        self._misses = 0
        self.neighbor = (payload.responder, payload.responder_port)
        self.skeptic.report_recovery(self.sim.now)
        self.skeptic.tick(self.sim.now)

    # ------------------------------------------------------------------
    @property
    def verdict(self):
        return self.skeptic.verdict

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PortMonitor {self.port.label} neighbor={self.neighbor} "
            f"verdict={self.skeptic.verdict.value}>"
        )


def start_port_monitor(
    node,
    port: Port,
    config,
    jitter,
    on_verdict: Callable[[LinkVerdict, float], None],
) -> PortMonitor:
    """Boot link monitoring on one cabled ``port`` of ``node``: a skeptic
    publishing to ``on_verdict`` and a started monitor feeding it, both
    tuned by the monitoring fields every device config carries.  The
    first ping is offset by one draw from ``jitter`` so that neighbors
    do not ping in lock-step."""
    skeptic = Skeptic(
        base_wait_us=config.skeptic_base_wait_us,
        max_level=config.skeptic_max_level,
        decay_interval_us=config.skeptic_decay_us,
        on_verdict=on_verdict,
    )
    monitor = PortMonitor(
        node.sim,
        node.node_id,
        port,
        skeptic,
        ping_interval_us=config.ping_interval_us,
        ack_timeout_us=config.ack_timeout_us,
        miss_threshold=config.miss_threshold,
        start_offset_us=jitter.uniform(0.0, config.ping_interval_us),
    )
    monitor.start()
    return monitor
