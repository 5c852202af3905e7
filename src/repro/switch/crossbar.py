"""The crossbar: AN2's internal switching fabric.

"Transmission from input to output takes place across a 16x16 crossbar.
The crossbar operates synchronously, routing up to 16 cells in parallel
during each time slot" (section 1).  The class is a thin synchronous
wrapper around a bitmask matcher (the ``match_masks`` kernel interface of
:mod:`repro.core.matching.bitmask`, the one ``VoqFabric.step`` drives);
it exists so the switch's composition mirrors the hardware (line cards
around a crossbar) and so the E2 iteration statistics can be collected
in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.matching.pim import MatchResult, Matching
from repro.sim.monitor import ProbeSet, Tally


class Crossbar:
    """A synchronous NxN crossbar scheduled by ``matcher``.

    When a registry-owned :class:`ProbeSet` is supplied, the iteration
    tally lives there and the plain-int counters are exposed as gauges, so
    a metrics snapshot sees this crossbar without any per-slot overhead.
    """

    def __init__(
        self, n_ports: int, matcher, probes: Optional[ProbeSet] = None
    ) -> None:
        self.n_ports = n_ports
        self.matcher = matcher
        self.slots = 0
        self.cells_transferred = 0
        self.guaranteed_transferred = 0
        if probes is not None:
            self.iterations_to_maximal = probes.tally("iterations_to_maximal")
            probes.gauge("slots", lambda: self.slots)
            probes.gauge("cells_transferred", lambda: self.cells_transferred)
            probes.gauge(
                "guaranteed_transferred", lambda: self.guaranteed_transferred
            )
            probes.gauge("utilization", self.utilization)
        else:
            self.iterations_to_maximal = Tally("crossbar.iterations_to_maximal")

    def schedule(
        self,
        masks: Sequence[int],
        pre_matched: Optional[Matching] = None,
        col_masks: Optional[Sequence[int]] = None,
    ) -> MatchResult:
        """One slot's matching decision (the transfer itself is performed
        by the switch, which owns the buffers).  ``masks[i]`` has bit
        ``o`` set iff input ``i`` requests output ``o``; ``col_masks`` is
        the transpose and may carry extra bits (see ``match_masks``)."""
        result = self.matcher.match_masks(masks, pre_matched, col_masks)
        self.slots += 1
        if result.iterations_to_maximal is not None:
            self.iterations_to_maximal.record(result.iterations_to_maximal)
        return result

    def note_transfer(self, guaranteed: bool = False) -> None:
        self.cells_transferred += 1
        if guaranteed:
            self.guaranteed_transferred += 1

    def utilization(self) -> float:
        if self.slots == 0:
            return 0.0
        return self.cells_transferred / (self.slots * self.n_ports)
