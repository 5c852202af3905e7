"""Per-virtual-circuit credit state (the protocol of Figure 4).

"The upstream switch maintains a credit balance for buffers in the
downstream switch; this is the number of buffers known to be empty.
Whenever the upstream switch sends a cell, it decrements the balance for
the corresponding virtual circuit.  Whenever a cell buffer is freed in the
downstream switch... a credit is transmitted back to the upstream switch,
and the credit balance for the circuit is incremented.  Cells are only
transmitted for circuits with non-zero credit balances."

Both ends also keep *cumulative* counters (cells sent / buffers freed).
These make the scheme "robust in the face of lost flow-control messages":
a lost credit only shrinks the usable window, and the resynchronization
protocol (:mod:`repro.core.flowcontrol.resync`) restores it from the
counters; its upstream half lives on :class:`UpstreamCredits` itself, so
there is one record per window and no second table to outlive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._types import VcId
from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest


class CreditError(Exception):
    """Protocol violation: sending without credit, freeing a free buffer..."""


@dataclass
class UpstreamCredits:
    """The sender's side: a credit balance for one VC over one link."""

    allocation: int
    balance: int = field(default=-1)
    cells_sent: int = 0
    credits_received: int = 0
    stalls: int = 0  # times a send was attempted/needed with zero balance
    #: credits received (or resync corrections) beyond the allocation --
    #: duplicated credit cells, or stale credits arriving after a resync
    #: already restored the window.  Clamped, counted, never delivered.
    excess_credits: int = 0
    #: the circuit this window belongs to (named in resync messages).
    vc: VcId = 0
    requests_sent: int = 0
    replies_applied: int = 0
    credits_recovered: int = 0
    #: replies whose counters cannot belong to this incarnation of the
    #: window (e.g. the circuit was rerouted and the downstream counter
    #: is cumulative over an older path) -- discarded.
    incoherent_replies: int = 0
    _stalled: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.allocation <= 0:
            raise CreditError(f"allocation must be positive, got {self.allocation}")
        if self.balance < 0:
            self.balance = self.allocation

    @property
    def can_send(self) -> bool:
        return self.balance > 0

    def consume(self) -> None:
        """Account for one cell transmitted downstream."""
        if self.balance <= 0:
            raise CreditError("sent a cell with zero credit balance")
        self.balance -= 1
        self.cells_sent += 1

    def credit(self, amount: int = 1) -> bool:
        """A credit cell arrived from downstream.

        A balance that would exceed the allocation (a duplicated credit
        cell, or a stale one arriving after resynchronization already
        restored the window) is clamped and counted in
        :attr:`excess_credits` -- a lost or duplicated credit "can only
        cause reduced performance".  Returns ``True`` when this credit
        *ends* a stall episode (the edge callers report).
        """
        if amount <= 0:
            raise CreditError(f"non-positive credit {amount}")
        self.balance += amount
        self.credits_received += amount
        if self.balance > self.allocation:
            self.excess_credits += self.balance - self.allocation
            self.balance = self.allocation
        unstalled = self._stalled
        self._stalled = False
        return unstalled

    def note_stall(self) -> bool:
        """Count one blocked send attempt.

        Returns ``True`` when this *begins* a stall episode (the first
        blocked attempt since credit last arrived) -- callers use that
        edge to report stalls without flooding on every retry.
        """
        self.stalls += 1
        if self._stalled:
            return False
        self._stalled = True
        return True

    def resynchronize(self, downstream_freed_total: int) -> int:
        """Reset the balance from the downstream's cumulative counter.

        ``allocation - (cells_sent - downstream_freed_total)`` is exactly
        the number of empty downstream buffers; returns the number of
        credits recovered (0 if none were lost).
        """
        in_flight_or_buffered = self.cells_sent - downstream_freed_total
        if in_flight_or_buffered < 0:
            raise CreditError("downstream freed more cells than were sent")
        correct = self.allocation - in_flight_or_buffered
        recovered = correct - self.balance
        if recovered < 0:
            # The balance is *too high* -- duplicated or stale credits
            # inflated it.  The counter-derived value is exact, so adopt
            # it, counting the excess.
            self.excess_credits += -recovered
            self.balance = correct
            return 0
        self.balance = correct
        return recovered

    def make_request(self) -> ResyncRequest:
        """Snapshot the transmit counter into a request message."""
        self.requests_sent += 1
        return ResyncRequest(self.vc, self.cells_sent)

    def apply_reply(self, reply: ResyncReply) -> int:
        """Apply a reply; returns credits recovered (0 if stale/no-op).

        Stale means the upstream transmitted more cells after snapshotting
        the request; the computed balance would be wrong (too generous),
        so the reply is discarded and the next periodic request retries.
        """
        if reply.vc != self.vc:
            raise ValueError(f"reply for vc {reply.vc} given to vc {self.vc}")
        if reply.cells_sent_echo != self.cells_sent:
            return 0
        in_flight = reply.cells_sent_echo - reply.buffers_freed
        if in_flight < 0 or in_flight > self.allocation:
            # Within one incarnation of the circuit 0 <= in_flight <=
            # allocation always holds (FIFO links; sends gated on the
            # window).  A reply outside that range pairs counters from
            # *different* incarnations -- e.g. the route moved and this
            # upstream state is fresh while the downstream counter is
            # still cumulative over the old path.  Unusable; discard and
            # let the next periodic request resynchronize from scratch.
            self.incoherent_replies += 1
            return 0
        recovered = self.resynchronize(reply.buffers_freed)
        self.credits_recovered += recovered
        self.replies_applied += 1
        return recovered


@dataclass
class DownstreamCredits:
    """The receiver's side: buffer occupancy for one VC over one link."""

    allocation: int
    occupied: int = 0
    cells_received: int = 0
    buffers_freed: int = 0
    overflows: int = 0

    def __post_init__(self) -> None:
        if self.allocation <= 0:
            raise CreditError(f"allocation must be positive, got {self.allocation}")

    def receive(self) -> None:
        """A cell arrived and takes a buffer.

        With a correct upstream this can never overflow; the check is the
        losslessness invariant the property tests lean on.
        """
        if self.occupied >= self.allocation:
            self.overflows += 1
            raise CreditError(
                f"buffer overflow: {self.occupied}/{self.allocation} occupied"
            )
        self.occupied += 1
        self.cells_received += 1

    def free(self) -> None:
        """The cell left through the crossbar; its buffer is empty again.

        The caller is responsible for transmitting the credit upstream.
        """
        if self.occupied <= 0:
            raise CreditError("freed a buffer that was not occupied")
        self.occupied -= 1
        self.buffers_freed += 1


def conservation_holds(
    upstream: UpstreamCredits,
    downstream: DownstreamCredits,
    cells_in_flight: int,
    credits_in_flight: int,
) -> bool:
    """The conservation invariant of a lossless link:

    ``balance + cells_in_flight + occupied + credits_in_flight ==
    allocation``.

    Property tests drive random send/forward schedules and assert this at
    every step; credit loss breaks it by exactly the number lost, which is
    what resynchronization recovers.
    """
    return (
        upstream.balance
        + cells_in_flight
        + downstream.occupied
        + credits_in_flight
        == upstream.allocation
    )
