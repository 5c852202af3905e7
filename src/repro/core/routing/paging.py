"""Circuit paging: reclaiming the resources of idle circuits.

Section 2: "A second optimization allows reclamation of resources, such
as buffers, that are associated with an idle virtual circuit.  Switch
software could 'page out' a circuit by releasing its buffers, removing it
from the routing table, and notifying the downstream switch of this
action.  The downstream switch could then page it out as well.  If
further cells for the circuit subsequently arrived, it could be 'paged
in' by generating a setup cell to recreate the circuit."

The mechanics (releasing state, the PageOut notification, and the
cell-triggered page-in) live in :class:`~repro.switch.switch.AN2Switch`;
this module provides the *policy*: a daemon that periodically scans a
switch for idle circuits and pages them out.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import VcId
from repro.sim.kernel import Event
from repro.switch.switch import AN2Switch


class PagingDaemon:
    """Periodically pages out circuits idle longer than a threshold."""

    def __init__(
        self,
        switch: AN2Switch,
        idle_threshold_us: float = 50_000.0,
        scan_interval_us: float = 25_000.0,
    ) -> None:
        if idle_threshold_us <= 0 or scan_interval_us <= 0:
            raise ValueError("thresholds must be positive")
        self.switch = switch
        self.idle_threshold_us = idle_threshold_us
        self.scan_interval_us = scan_interval_us
        self.pages_initiated = 0
        #: the next scan while running; cancelled by :meth:`stop`, so a
        #: restart never leaves a second loop behind.
        self._pending: Optional[Event] = None

    def start(self) -> None:
        if self._pending is None:
            self._pending = self.switch.sim.schedule(
                self.scan_interval_us, self._scan
            )

    def stop(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _scan(self) -> None:
        self.scan_once()
        self._pending = self.switch.sim.schedule(
            self.scan_interval_us, self._scan
        )

    def scan_once(self) -> List[VcId]:
        """One scan pass; returns the circuits paged out."""
        paged: List[VcId] = []
        now = self.switch.sim.now
        for vc, circuit in list(self.switch.circuits.items()):
            idle_for = now - circuit.last_activity
            if idle_for >= self.idle_threshold_us and self.switch.page_out(vc):
                paged.append(vc)
                self.pages_initiated += 1
        return paged

