"""The crossbar: AN2's internal switching fabric.

"Transmission from input to output takes place across a 16x16 crossbar.
The crossbar operates synchronously, routing up to 16 cells in parallel
during each time slot" (section 1).

:class:`Crossbar` is the scheduling core shared by the event-driven
:class:`~repro.switch.switch.AN2Switch` and the slot-synchronous
:class:`~repro.switch.fabric.VoqFabric`.  It owns the *request matrix*
-- which input has a cell it may send to which output -- as row masks,
their transpose and the union of wanted outputs, flipped by the owner on
edges (:meth:`Crossbar.request` / :meth:`Crossbar.withdraw`) instead of
rebuilt from the queues every slot, and it owns the matcher that reads
the matrix (:meth:`Crossbar.schedule`, one call per cell slot).  The
owner keeps the buffers, decides what "may send" means (a queued cell;
in the switch also a credit) and moves the cells of the matching.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.matching.bitmask import MAX_PORTS, MatchResult, Matching
from repro.sim.monitor import ProbeSet, Tally


class Crossbar:
    """A synchronous NxN crossbar scheduled by ``matcher``.

    Bit ``o`` of ``rows[i]`` and bit ``i`` of ``cols[o]`` are set iff
    input ``i`` requests output ``o``; ``want`` ORs the rows.

    ``slots`` and ``iterations_to_maximal`` count matcher calls
    (:meth:`schedule`), not cell slots: an owner that has no output to
    offer a slot -- ``AN2Switch`` when the reservations took every
    output worth asking about -- does not call it.

    When a registry-owned :class:`ProbeSet` is supplied, the iteration
    tally lives there and the slot counter is exposed as a gauge, so a
    metrics snapshot sees this crossbar without any per-slot overhead.
    """

    def __init__(
        self, n_ports: int, matcher, probes: Optional[ProbeSet] = None
    ) -> None:
        if n_ports > MAX_PORTS:
            raise ValueError(
                f"{n_ports} ports exceed the crossbar's {MAX_PORTS}-port "
                f"request masks"
            )
        if matcher.n_ports != n_ports:
            raise ValueError(
                f"a {n_ports}-port crossbar cannot be scheduled by a "
                f"{matcher.n_ports}-port matcher"
            )
        self.n_ports = n_ports
        self.matcher = matcher
        self.rows: List[int] = [0] * n_ports
        self.cols: List[int] = [0] * n_ports
        self.want = 0
        self.slots = 0
        if probes is not None:
            self.iterations_to_maximal = probes.tally("iterations_to_maximal")
            probes.gauge("slots", lambda: self.slots)
        else:
            self.iterations_to_maximal = Tally("crossbar.iterations_to_maximal")

    def request(self, input_port: int, output_port: int) -> None:
        """Input ``input_port`` now has something to send to
        ``output_port``.  Idempotent."""
        out_bit = 1 << output_port
        self.rows[input_port] |= out_bit
        self.cols[output_port] |= 1 << input_port
        self.want |= out_bit

    def withdraw(self, input_port: int, output_port: int) -> None:
        """Input ``input_port`` has nothing left to send to
        ``output_port``.  Idempotent."""
        out_bit = 1 << output_port
        self.rows[input_port] &= ~out_bit
        column = self.cols[output_port] & ~(1 << input_port)
        self.cols[output_port] = column
        if not column:
            self.want &= ~out_bit

    def schedule(
        self,
        pre_matched: Optional[Matching] = None,
        available: Optional[int] = None,
    ) -> MatchResult:
        """One slot's matching decision (the transfer itself is performed
        by the owner, which holds the buffers).

        ``pre_matched`` pairs (this slot's reservations) are kept and
        their inputs and outputs left out of the matching.  ``available``
        is the mask of outputs that can take a cell this slot (``None``:
        all of them); requests for any other output sit the slot out.
        """
        # ``want`` also ORs in the rows of pre-matched inputs, so it is
        # the kernel's starting union only when there are none.
        result = self.matcher.match_masks(
            self.rows, pre_matched, self.cols,
            None if pre_matched else self.want, available,
        )
        self.slots += 1
        if result.iterations_to_maximal is not None:
            self.iterations_to_maximal.record(result.iterations_to_maximal)
        return result
