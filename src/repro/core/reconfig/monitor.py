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

The loop runs in one of two forms.  *Eagerly*, each ping, its delivery,
its ack's delivery and its ack timeout (cancelled by the ack) are kernel
events.  In *closed form* it schedules nothing: once the line is quiet
-- WORKING, with no hook, filter, observer or error rate on the link,
both skeptics at rest and both monitors knowing their neighbour
(:meth:`~repro.net.link.Link._rest`) -- every ping is sure to be acked,
so the monitor keeps only its next step's time and its counters, and
the link folds each phantom ping and ack into the wire and the counters
when something reads or writes them (:meth:`_step`).  Any change to
those conditions, and any backlog that could hold an ack past its
timeout, puts the loop back on the kernel (:meth:`wake`) on the same
phase, with its in-flight cells and timeout as the eager loop would
have them.  ``repro.conform.reference.EagerPortMonitor`` never rests:
it is the reference the closed form is checked against.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro._types import NodeId
from repro.core.reconfig.skeptic import Skeptic
from repro.net.cell import BEST_EFFORT, PING, PING_ACK, Cell
from repro.net.link import Link, counter
from repro.net.port import Port
from repro.sim.kernel import Event, Simulator

#: closed-form phases, in the order their eager events run at equal
#: times: the next ping is due, the ping is on the wire, its ack is.
_IDLE, _PING_OUT, _ACK_OUT = 0, 1, 2


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

    pings_sent = counter("_pings_sent", lambda monitor: monitor.port.link)
    acks_received = counter(
        "_acks_received", lambda monitor: monitor.port.link
    )

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
        self._pings_sent = 0
        self._acks_received = 0
        self._started = False
        #: the pending next ping while the loop runs eagerly; in closed
        #: form, the phase, when its next step is due, the next ping's
        #: time, the last ping's and the in-flight cell's arrival.
        self._next: Optional[Event] = None
        self._phase = _IDLE
        self._due = self._ping_at = self._sent = self._arrival = 0.0
        # Records (ours and the skeptic's) name the owner, e.g.
        # "switch.s3", and carry the port.
        self._label = owner_id.label
        skeptic.bind(sim, self._label, port.index)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.port.link is not None:
            self.port.link._monitors[self.port._direction] = self
        self._next = self.sim.schedule(self._start_offset_us, self._send_ping)

    def _send_ping(self) -> None:
        self._seq += 1
        seq = self._seq
        sim = self.sim
        port = self.port
        self._pings_sent += 1
        payload = PingPayload(self.owner_id, port.index, seq)
        port.send(Cell(0, PING, BEST_EFFORT, payload))
        self._outstanding[seq] = sim.schedule(
            self.ack_timeout_us, self._check_timeout, seq
        )
        self._next = sim.schedule(self.ping_interval_us, self._send_ping)
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
        self._acks_received += 1
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
        elif not self._outstanding:
            self.port.link._rest()

    # ------------------------------------------------------------------
    # the closed form
    # ------------------------------------------------------------------
    def can_rest(self) -> bool:
        """May the loop leave the kernel: it runs, no ping is unanswered,
        the neighbour is known and the skeptic is at rest."""
        return (
            self._next is not None and not self._outstanding
            and self.neighbor is not None and self.skeptic.at_rest
        )

    def rest(self) -> None:
        """Leave the kernel: the pending ping becomes the first phantom."""
        event, self._next = self._next, None
        event.cancel()
        self._due = self._ping_at = event.time
        self._phase = _IDLE

    def _step(self, link: Link) -> None:
        """Take the phantom step due exactly as its eager event would:
        the ping leaves; it arrives and the ack leaves; the ack arrives."""
        port = self.port
        phase = self._phase
        if phase == _IDLE:
            self._seq += 1
            self._pings_sent += 1
            port._cells_sent += 1
            self._sent = self._due
            self._ping_at = self._sent + self.ping_interval_us
            self._launch(link, port._direction, PING)
        else:
            link._cells_delivered += 1
            if phase == _PING_OUT:
                peer = link.other_port(port)
                peer._cells_received += 1
                peer._cells_sent += 1
                self._launch(link, 1 - port._direction, PING_ACK)
            else:
                port._cells_received += 1
                self._acks_received += 1
                self._misses = 0
                self._due = self._ping_at
        self._phase = (phase + 1) % 3

    def _launch(self, link: Link, direction: int, kind) -> None:
        """A phantom ``kind`` cell leaves at ``_due``, serialized and
        delivered as :meth:`~repro.net.link.Link.transmit` would."""
        wire = link._next_free
        start = wire[direction]
        wire[direction] = max(start, self._due) + link.cell_time_us
        self._arrival = wire[direction] + link.latency_us
        self._due = self._arrival + link._delays[direction][kind.index]

    def wake(self) -> None:
        """Back on the kernel as the eager loop stands now (every step
        due is taken): the link delivers a ping or ack in flight, the
        unanswered ping's timeout is armed, and the next ping is due."""
        sim, port, seq = self.sim, self.port, self._seq
        if self._phase != _IDLE:
            ping = PingPayload(self.owner_id, port.index, seq)
            cell = (
                Cell(0, PING, BEST_EFFORT, ping) if self._phase == _PING_OUT
                else Cell(0, PING_ACK, BEST_EFFORT,
                          PingAckPayload(*ping, *self.neighbor))
            )
            sim.schedule_at(
                self._due, port.link._deliver,
                port._direction ^ (self._phase == _ACK_OUT), cell,
                self._arrival,
            )
            self._outstanding[seq] = sim.schedule_at(
                self._sent + self.ack_timeout_us, self._check_timeout, seq
            )
        self._next = sim.schedule_at(self._ping_at, self._send_ping)

    # ------------------------------------------------------------------
    @property
    def verdict(self):
        return self.skeptic.verdict

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PortMonitor {self.port.label} neighbor={self.neighbor} "
            f"verdict={self.skeptic.verdict.value}>"
        )
