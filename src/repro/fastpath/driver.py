"""One kernel slot event for the whole fabric.

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

Only switches on the shared zero-drift clock are adopted
(:meth:`adopt` refuses the rest): a drifting oscillator is *supposed*
to tick at its own rate, and collapsing it onto the shared boundary
would change what the drift machinery measures.  Those switches keep
their per-switch timers.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["FabricSlotDriver"]


class FabricSlotDriver:
    """Coalesce per-switch slot timers into one wave event per slot."""

    def __init__(self, sim, slot_time_us: float) -> None:
        self.sim = sim
        self.slot_time_us = slot_time_us
        self._pending: Dict[str, object] = {}
        self._scheduled = False
        #: wave events fired / switch ticks dispatched (the event-count
        #: saving is ``ticks - waves`` versus per-switch scheduling).
        self.waves = 0
        self.ticks = 0
        self.adopted = 0
        #: switches :meth:`adopt` left on their private timer because
        #: their clock drifts.
        self.refused_drift = 0

    def adopt(self, switch) -> bool:
        """Route ``switch``'s slot timers through this driver.

        Returns False (and leaves the switch on its private timer) when
        the switch's clock drifts or its slot time differs -- the wave
        boundary only stands in for timers it exactly replaces.
        """
        if switch.clock.drift_ppm != 0.0:
            self.refused_drift += 1
            return False
        if switch.config.slot_time_us != self.slot_time_us:
            return False
        switch._slot_driver = self
        self.adopted += 1
        return True

    def request_tick(self, switch) -> None:
        """Enqueue ``switch`` for the next wave (idempotent per wave)."""
        self._pending[switch.node_id] = switch
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule(self.slot_time_us, self._fire)

    def _fire(self) -> None:
        self._scheduled = False
        batch = self._pending
        self._pending = {}
        self.waves += 1
        self.ticks += len(batch)
        for node_id in sorted(batch):
            batch[node_id]._slot_tick()
