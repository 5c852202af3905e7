"""One slot clock for a wave of switches, and one kernel event per slot
some switch booked.

Were every :class:`~repro.switch.switch.AN2Switch` with backlog to
schedule its *own* ``_slot_tick``, a busy S-switch network would pay S
heap pushes + S heap pops + S callback dispatches per cell slot.
:class:`FabricSlotDriver` replaces that with a single *wave* event per
slot: the switches booked for a slot are walked together when it
starts.  It is the only slot schedule, for section 4's two clock
regimes: a ``Network``'s drift-free switches share one clock (the
synchronized network's global slot clock), and a switch whose
oscillator drifts rides a one-member clock of its own
(:meth:`FabricSlotDriver.spawn`) at its local slot time.

The clock is time, not a count: slot ``n`` starts at
:meth:`~FabricSlotDriver.time_of` ``(n)``, whether or not any switch
is walked in it, and a switch's frame position is the number of the
slot it is walked in.  Walks are booked in one calendar, slot -> rank
mask (:meth:`~FabricSlotDriver.book`); each switch holds at most one
booking, and a new one replaces it.  The driver keeps one kernel event,
at the earliest slot booked: a slot nobody booked costs nothing.

A switch kicked mid-slot is walked at the next slot boundary; that is
safe because ``_slot_tick`` re-checks ``can_transmit_at`` on every
output port before sending, so no switch ever transmits faster than
the line rate.  Dispatch within a wave is in node-id order: ranks
(positions in node-id order) and bitmasks over them keep ``NodeId``
hashing and sorting off the wave.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

__all__ = ["FabricSlotDriver"]


class FabricSlotDriver:
    """A slot clock whose booked slots each fire one wave event."""

    def __init__(
        self, sim, slot_time_us: float, origin_us: float = 0.0,
        first_slot: int = 0,
    ) -> None:
        self.sim = sim
        self.slot_time_us = slot_time_us
        #: slot ``first_slot`` starts at ``origin_us``.
        self.origin_us = origin_us
        self.first_slot = first_slot
        #: member switches in node-id order.  A switch's position is
        #: its *rank* (``switch._slot_rank`` while it rides this wave):
        #: its bit in the calendar's masks.
        self._switches: List = []
        #: slot -> ranks booked to be walked in it; a member's booking
        #: is its ``_booked`` slot (``None``: none).
        self._calendar: Dict[int, int] = {}
        #: heap of booked slots, with stale ones a moved booking left.
        self._slots: List[int] = []
        #: the kernel event of slot ``_next``, the earliest booked one
        #: (``None`` with ``_next`` set: that slot is being walked).
        self._event = None
        self._next: Optional[int] = None
        #: wave events fired / ``_slot_tick`` calls made: ``ticks -
        #: waves`` kernel events saved versus per-switch timers.
        self.waves = 0
        self.ticks = 0
        self.adopted = 0
        #: the one-member waves :meth:`spawn` built, in order.
        self.own_waves: List["FabricSlotDriver"] = []

    def time_of(self, slot: int) -> float:
        """When ``slot`` starts."""
        return self.origin_us + (slot - self.first_slot) * self.slot_time_us

    def slot_at(self, now: float) -> int:
        """The slot ``now`` falls in: ``now < time_of(slot + 1)``, and
        ``time_of(slot) <= now`` (exact at every boundary; a time within
        a rounding step below one may read the slot it starts)."""
        origin, step = self.origin_us, self.slot_time_us
        count = int((now - origin) // step)
        if origin + (count + 1) * step <= now:
            count += 1
        return self.first_slot + count

    def adopt(self, switch) -> None:
        """Make ``switch`` a member and tick it on this wave.  Ranks are
        re-dealt on every adoption, so adopt before anything is booked;
        a member may leave (:meth:`spawn`) and come back (:meth:`ride`)
        at any time."""
        if self._calendar:
            raise RuntimeError("adopt switches before the wave is booked")
        switch._slot_driver = self
        self._switches.append(switch)
        self._switches.sort(key=lambda member: member.node_id)
        for rank, member in enumerate(self._switches):
            if member._slot_driver is self:
                member._slot_rank = rank
        self.adopted += 1

    def ride(self, switch) -> None:
        """Tick member ``switch`` on this wave from its next booking."""
        switch._slot_driver = self
        switch._slot_rank = self._switches.index(switch)

    def spawn(self, switch, slot_time_us: float) -> "FabricSlotDriver":
        """Tick ``switch`` from its next booking on a one-member clock
        of its own, ``slot_time_us`` a slot, that continues the slot
        numbers of the clock it rides now: its next slot starts where
        that clock's does.  :meth:`counts` includes the new wave."""
        clock = switch._slot_driver
        first = clock.slot_at(self.sim.now) + 1
        wave = FabricSlotDriver(
            self.sim, slot_time_us, clock.time_of(first), first
        )
        wave.adopt(switch)
        self.own_waves.append(wave)
        return wave

    def counts(self) -> Tuple[int, ...]:
        """``(waves, ticks)`` of this wave and every wave it spawned."""
        waves = (self, *self.own_waves)
        return tuple(
            sum(getattr(wave, name) for wave in waves)
            for name in ("waves", "ticks")
        )

    def book(self, switch, slot: Optional[int]) -> None:
        """Walk ``switch`` at ``slot`` (``None``: at no slot) instead of
        at the slot it was booked for."""
        bit = 1 << switch._slot_rank
        calendar = self._calendar
        old = switch._booked
        if old is not None:
            left = calendar.get(old, 0) & ~bit
            if left:
                calendar[old] = left
            else:
                calendar.pop(old, None)
        switch._booked = slot
        if slot is not None:
            mask = calendar.get(slot)
            if mask is None:
                calendar[slot] = bit
                heappush(self._slots, slot)
            else:
                calendar[slot] = mask | bit
        upcoming = self._next
        if upcoming is None or self._event is not None and (
            slot is not None and slot < upcoming
            or old == upcoming and upcoming not in calendar
        ):
            self._plan()

    def _plan(self) -> None:
        """Aim the one kernel event at the earliest slot booked."""
        slots, calendar = self._slots, self._calendar
        while slots and slots[0] not in calendar:
            heappop(slots)
        upcoming = slots[0] if slots else None
        event = self._event
        if event is not None:
            if upcoming == self._next:
                return
            event.cancel()
        self._next = upcoming
        self._event = None if upcoming is None else self.sim.schedule_at(
            self.time_of(upcoming), self._fire
        )

    def _fire(self) -> None:
        slot = self._next
        self._event = None
        due = self._calendar.pop(slot)
        slots = self._slots
        while slots and slots[0] <= slot:
            heappop(slots)
        self.waves += 1
        self.ticks += due.bit_count()
        switches = self._switches
        while due:
            bit = due & -due
            due ^= bit
            switch = switches[bit.bit_length() - 1]
            switch._booked = None
            switch._slot_tick(slot)
        self._next = None
        self._plan()
