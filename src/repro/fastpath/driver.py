"""One kernel slot event for the whole fabric, walking only the switches
that can move a cell.

On private timers every :class:`~repro.switch.switch.AN2Switch` with
backlog schedules its *own* ``_slot_tick``, so a busy S-switch network
pays S heap pushes + S heap pops + S callback dispatches per cell slot.
:class:`FabricSlotDriver` replaces that with a single *wave* event:
switches asking for a tick in the same slot window are batched and
advanced together when the wave fires.  Every
:class:`~repro.net.network.Network` builds one; it is how drift-free
switches tick.

Semantics: the driver models a **fabric-wide synchronized slot clock**
-- all adopted switches tick on one shared slot boundary instead of S
individually-phased ones.  A switch that requests a tick mid-window is
advanced at the wave boundary (up to one slot earlier than its private
timer would have fired); that is safe because ``_slot_tick`` re-checks
``can_transmit_at`` on every output port before sending, so no switch
ever transmits faster than the line rate.  Dispatch within a wave is
ordered by node id, keeping runs deterministic.

An *armed* switch -- one with cells queued or slots reserved, whose
slot counter is running -- is in one of two states.  **Due**
(:meth:`request_tick`): it is walked at the next wave.  **Parked**
(:meth:`park`): the switch worked out at the end of a tick that nothing
it holds can move before a later wave (every wanted wire busy, every
queued guaranteed cell short of its reserved slot, or nothing to do
until a cell or credit arrives), so it is left out of the walk until
that wave or until an edge kicks it (``request_tick`` un-parks).  The
slots a parked switch sits out are added to its ``_slot_index`` when it
is un-parked, so its frame position is what ticking every slot would
have made it.

Parking changes which switches a wave *calls*, never the kernel's event
stream: a wave fires every slot while any switch is armed, due or
parked, and the next wave is scheduled at the point of the walk where
ticking every armed switch would have scheduled it -- where the first
armed switch in node-id order re-arms -- so every event keeps its
``(time, seq)``.  Ranks (positions in node-id order) and bitmasks over
them make that point, and the walk order, free of ``NodeId`` hashing
and sorting.

Only switches on the shared zero-drift clock are adopted
(:meth:`adopt` refuses the rest): a drifting oscillator is *supposed*
to tick at its own rate, and collapsing it onto the shared boundary
would change what the drift machinery measures.  Those switches keep
their per-switch timers, ticking every slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["FabricSlotDriver"]


class FabricSlotDriver:
    """Coalesce per-switch slot timers into one wave event per slot."""

    def __init__(self, sim, slot_time_us: float) -> None:
        self.sim = sim
        self.slot_time_us = slot_time_us
        #: adopted switches in node-id order.  A switch's position is
        #: its *rank* (``switch._slot_rank``): its bit in the masks.
        self._switches: List = []
        self._due = 0  # ranks walked at the next wave
        self._asleep = 0  # ranks parked: armed, not walked
        #: by rank: ``waves`` as it read when the switch parked, and
        #: the wave that un-parks it (0: none, it waits for a kick).
        self._parked_at: List[int] = []
        self._wake_at: List[int] = []
        #: wave number -> ranks that wave un-parks.
        self._wake: Dict[int, int] = {}
        self._scheduled = False
        self._walking = False
        #: wave events fired / ``_slot_tick`` calls made / switch-slots
        #: not walked because the switch was parked.  ``ticks + parked``
        #: is what ``ticks`` would read with every armed switch walked
        #: every wave, and ``ticks - waves`` the kernel events saved
        #: versus per-switch timers.
        self.waves = 0
        self.ticks = 0
        self.parked = 0
        self.adopted = 0
        #: switches :meth:`adopt` left on their private timer because
        #: their clock drifts.
        self.refused_drift = 0

    def adopt(self, switch) -> bool:
        """Route ``switch``'s slot timers through this driver.

        Returns False (and leaves the switch on its private timer) when
        the switch's clock drifts or its slot time differs -- the wave
        boundary only stands in for timers it exactly replaces.  Ranks
        are re-dealt on every adoption, so adopt before any switch arms.
        """
        if switch.clock.drift_ppm != 0.0:
            self.refused_drift += 1
            return False
        if switch.config.slot_time_us != self.slot_time_us:
            return False
        if self._due or self._asleep:
            raise RuntimeError("adopt switches before the wave is armed")
        switch._slot_driver = self
        self._switches.append(switch)
        self._switches.sort(key=lambda member: member.node_id)
        for rank, member in enumerate(self._switches):
            member._slot_rank = rank
        self._parked_at.append(0)
        self._wake_at.append(0)
        self.adopted += 1
        return True

    def request_tick(self, switch) -> None:
        """Walk ``switch`` at the next wave (idempotent per wave),
        un-parking it if it is parked."""
        rank = switch._slot_rank
        bit = 1 << rank
        if self._asleep & bit:
            self._unpark(rank)
        self._due |= bit
        if not self._scheduled:
            self._schedule()

    def park(self, switch, waves: Optional[int]) -> bool:
        """Keep ``switch`` armed but out of the walk until the
        ``waves``-th wave from the one being walked (``None``: until
        :meth:`request_tick`).  Returns whether it parked: one wave is
        no wait, and horizons count from the wave being walked, so a
        switch asking from anywhere else -- its first tick back from a
        private timer -- is simply due at the next wave."""
        if waves == 1 or not self._walking:
            self.request_tick(switch)
            return False
        rank = switch._slot_rank
        bit = 1 << rank
        self._asleep |= bit
        self._parked_at[rank] = self.waves
        wake_at = 0 if waves is None else self.waves + waves
        self._wake_at[rank] = wake_at
        if wake_at:
            self._wake[wake_at] = self._wake.get(wake_at, 0) | bit
        if not self._scheduled:
            self._schedule()
        return True

    def is_parked(self, switch) -> bool:
        return bool(self._asleep >> switch._slot_rank & 1)

    def sat_out(self, switch) -> int:
        """Waves ``switch`` has sat out since it parked (0: not parked):
        what its ``_slot_index`` is short of its slot clock."""
        rank = switch._slot_rank
        if self._asleep >> rank & 1:
            return self.waves - self._parked_at[rank]
        return 0

    def _unpark(self, rank: int) -> None:
        bit = 1 << rank
        self._asleep ^= bit
        self._switches[rank]._slot_index += self.waves - self._parked_at[rank]
        wake_at = self._wake_at[rank]
        if wake_at:
            # Un-parked early by a kick: the planned wake is void.
            others = self._wake[wake_at] ^ bit
            if others:
                self._wake[wake_at] = others
            else:
                del self._wake[wake_at]

    def _schedule(self) -> None:
        self._scheduled = True
        self.sim.schedule(self.slot_time_us, self._fire)

    def _fire(self) -> None:
        self._scheduled = False
        woken = self._wake.pop(self.waves + 1, 0)
        self._due |= woken
        while woken:
            bit = woken & -woken
            woken ^= bit
            rank = bit.bit_length() - 1
            self._wake_at[rank] = 0
            self._unpark(rank)
        self.waves += 1
        due, self._due = self._due, 0
        self.ticks += due.bit_count()
        self.parked += self._asleep.bit_count()
        switches = self._switches
        self._walking = True
        while due:
            bit = due & -due
            due ^= bit
            # Walked every wave, each parked switch would re-arm in its
            # turn: the next wave is scheduled no later in the walk than
            # the first of them, so later ticks' events keep their seq.
            if not self._scheduled and self._asleep & (bit - 1):
                self._schedule()
            switches[bit.bit_length() - 1]._slot_tick()
        self._walking = False
        if self._asleep and not self._scheduled:
            self._schedule()
