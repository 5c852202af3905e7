"""Per-node clocks with rate skew.

Section 4 of the paper distinguishes synchronized networks (a global clock,
2 frames of guaranteed-traffic buffering) from networks like AN2 with *no*
global synchronization, where buffer requirements additionally depend on
"the variation in switch clock rates".  :class:`DriftingClock` models a
switch-local oscillator whose rate differs from true (simulated) time by a
fixed number of parts-per-million, with an arbitrary phase offset.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class DriftingClock:
    """A local clock running at ``1 + drift_ppm * 1e-6`` times real rate.

    ``local_now()`` converts the simulator's global time into this node's
    local time; ``global_delay(local_delay)`` converts a local-duration wait
    (e.g. "one frame time, as measured by my oscillator") into the global
    delay to hand to the simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        drift_ppm: float = 0.0,
        offset: float = 0.0,
    ) -> None:
        self.sim = sim
        self.drift_ppm = drift_ppm
        self.offset = offset
        self._rate = 1.0 + drift_ppm * 1e-6
        if self._rate <= 0:
            raise ValueError(f"drift {drift_ppm} ppm gives non-positive rate")

    def local_now(self) -> float:
        """This node's local time, in microseconds."""
        return self.offset + self.sim.now * self._rate

    def global_delay(self, local_delay: float) -> float:
        """Global (simulator) delay corresponding to a local duration."""
        if local_delay < 0:
            raise ValueError(f"negative delay {local_delay}")
        return local_delay / self._rate

    def set_drift(self, drift_ppm: float) -> None:
        """Step the oscillator rate without a phase jump.

        Fault scenarios use this to model an oscillator going out of
        spec mid-run.  The offset is recomputed so that ``local_now()``
        is continuous across the step -- only the *rate* changes, the
        local clock never jumps backwards or forwards.
        """
        rate = 1.0 + drift_ppm * 1e-6
        if rate <= 0:
            raise ValueError(f"drift {drift_ppm} ppm gives non-positive rate")
        local = self.local_now()
        self.drift_ppm = drift_ppm
        self._rate = rate
        self.offset = local - self.sim.now * rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DriftingClock drift={self.drift_ppm}ppm offset={self.offset}>"
