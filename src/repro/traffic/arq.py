"""Host-level retransmission over a lossy (drop-mode) network.

Section 5 lists three ways to handle buffer pressure; the third is
"drop messages when buffer capacity is exceeded.  If messages are
dropped, they are typically retransmitted by higher levels of the
system."  AN2 rejected this for best-effort traffic in favour of
credits; this module supplies the rejected alternative so the A6
ablation can measure what AN2 avoided: retransmission waste and
timeout-bound latency under congestion.

:class:`ArqTransfer` is a go-back-N sender/receiver pair over a forward
data circuit and a reverse ack circuit.  Sequence numbers ride in the
packet payload; the receiver delivers in order and returns cumulative
acks; the sender slides its window on acks and retransmits from the
base on timeout.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro._types import VcId
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.kernel import Event, Simulator

_HEADER = struct.Struct("!IQ")  # kind marker + sequence number
_DATA_MARK = 0xDA7A
_ACK_MARK = 0xACC0


def _frame(mark: int, seq: int, body_bytes: int) -> bytes:
    return _HEADER.pack(mark, seq) + b"\x00" * max(
        0, body_bytes - _HEADER.size
    )


def _parse(payload: bytes):
    if len(payload) < _HEADER.size:
        return None
    mark, seq = _HEADER.unpack_from(payload)
    if mark not in (_DATA_MARK, _ACK_MARK):
        return None
    return mark, seq


class ArqTransfer:
    """A reliable go-back-N transfer between two hosts.

    Args:
        sim: the simulator both hosts live in.
        sender / receiver: the host controllers.
        data_vc: established circuit sender -> receiver.
        ack_vc: established circuit receiver -> sender.
        n_packets: how many packets to move.
        packet_bytes: size of each data packet.
        window: go-back-N window in packets.
        timeout_us: retransmission timeout.
        max_retries: consecutive timeout rounds tolerated without any
            ack progress before the transfer enters the terminal
            ``failed`` state (``None`` = retry forever, the historical
            behavior -- which spins the kernel when the receiver is
            unreachable).
    """

    def __init__(
        self,
        sim: Simulator,
        sender: Host,
        receiver: Host,
        data_vc: VcId,
        ack_vc: VcId,
        n_packets: int,
        packet_bytes: int = 960,
        window: int = 8,
        timeout_us: float = 2_000.0,
        max_retries: Optional[int] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if n_packets < 1:
            raise ValueError(f"n_packets must be >= 1, got {n_packets}")
        if max_retries is not None and max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.data_vc = data_vc
        self.ack_vc = ack_vc
        self.n_packets = n_packets
        self.packet_bytes = max(packet_bytes, _HEADER.size)
        self.window = window
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        # Sender state.
        self.base = 0
        self.next_seq = 0
        self.packets_transmitted = 0  # includes retransmissions
        self.retransmissions = 0
        self.timeouts = 0
        #: terminal state: ``max_retries`` consecutive timeout rounds
        #: passed without ack progress; no further events are scheduled.
        self.failed = False
        self._consecutive_timeouts = 0
        self._timer: Optional[Event] = None
        # Receiver state.
        self.expected = 0
        self.delivered = 0
        self.completed_at: Optional[float] = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.delivered >= self.n_packets

    @property
    def efficiency(self) -> float:
        """Useful packets / packets put on the wire (1.0 = no waste)."""
        if self.packets_transmitted == 0:
            return 0.0
        return self.n_packets / self.packets_transmitted

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.receiver.packet_delivered.subscribe(self._on_receiver_packet)
        self.sender.packet_delivered.subscribe(self._on_sender_packet)
        self._fill_window()

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        while (
            self.next_seq < self.base + self.window
            and self.next_seq < self.n_packets
        ):
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_timer()

    def _transmit(self, seq: int) -> None:
        self.packets_transmitted += 1
        self.sender.send_packet(
            self.data_vc,
            Packet(
                source=self.sender.node_id,
                destination=self.receiver.node_id,
                payload=_frame(_DATA_MARK, seq, self.packet_bytes),
            ),
        )

    def _arm_timer(self) -> None:
        self._cancel_timer()
        # Only while packets are outstanding: with everything acked
        # there is nothing to retransmit.
        if self.base < self.next_seq and not self.failed:
            self._timer = self.sim.schedule(self.timeout_us, self._timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timeout(self) -> None:
        self._timer = None
        if self.base >= self.n_packets or self.failed:
            return
        if (
            self.max_retries is not None
            and self._consecutive_timeouts >= self.max_retries
        ):
            # Terminal: the receiver is unreachable; stop rather than
            # retransmit the window forever at a fixed interval.
            self.failed = True
            return
        self.timeouts += 1
        self._consecutive_timeouts += 1
        # Go-back-N: retransmit the whole outstanding window.
        for seq in range(self.base, self.next_seq):
            self.retransmissions += 1
            self._transmit(seq)
        self._arm_timer()

    def _on_sender_packet(self, packet: Packet) -> None:
        """An ack packet arrived back at the sender."""
        parsed = _parse(packet.payload)
        if parsed is None:
            return
        mark, ack_seq = parsed
        # The parsed mark is a fresh int well outside CPython's small-int
        # cache, so an identity comparison against _ACK_MARK would always
        # be False; equality is the whole check.
        if mark != _ACK_MARK:
            return
        if self.failed:
            return
        if ack_seq + 1 > self.base:
            self.base = ack_seq + 1
            self._consecutive_timeouts = 0
            self._fill_window()
            if self.base >= self.n_packets:
                self._cancel_timer()

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _on_receiver_packet(self, packet: Packet) -> None:
        parsed = _parse(packet.payload)
        if parsed is None:
            return
        mark, seq = parsed
        if mark != _DATA_MARK:
            return
        if seq == self.expected:
            self.expected += 1
            self.delivered += 1
            if self.done and self.completed_at is None:
                self.completed_at = self.sim.now
        # Cumulative ack for the last in-order packet (or nothing yet).
        if self.expected > 0:
            self.receiver.send_packet(
                self.ack_vc,
                Packet(
                    source=self.receiver.node_id,
                    destination=self.sender.node_id,
                    payload=_frame(_ACK_MARK, self.expected - 1, _HEADER.size),
                ),
            )
