"""Speculative load balancing by circuit migration.

Section 2: "A more speculative option is to reroute circuits to balance
the load on the network.  The mechanics of rerouting are no more
difficult in this case than in the earlier ones.  However, algorithms to
determine when and where circuits should be moved have yet to be
considered."

We supply one such algorithm, clearly labelled as the extension the paper
leaves open: a watermark balancer.  Periodically, it measures each
switch output port's forwarding rate; when a port exceeds
``high_watermark`` of its link's cell rate, the busiest circuit using it
is migrated onto an alternate legal path (reusing the local-reroute
mechanics).  A migration cooldown prevents oscillation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro._types import NodeId, VcId
from repro.net.network import Network
from repro.sim.kernel import Event


class LoadBalancer:
    """Watermark-triggered circuit migration over a running network."""

    def __init__(
        self,
        network: Network,
        interval_us: float = 10_000.0,
        high_watermark: float = 0.9,
        cooldown_us: float = 50_000.0,
    ) -> None:
        if not 0.0 < interval_us < math.inf:
            raise ValueError(
                f"interval_us {interval_us} must be positive and finite"
            )
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError(f"watermark {high_watermark} out of (0, 1]")
        self.network = network
        self.interval_us = interval_us
        self.high_watermark = high_watermark
        self.cooldown_us = cooldown_us
        self.migrations = 0
        self._last_counts: Dict[Tuple[NodeId, int], int] = {}
        self._last_migration: Dict[VcId, float] = {}
        #: the next pass while running; cancelled by :meth:`stop`, so a
        #: restart never leaves a second loop behind.
        self._pending: Optional[Event] = None

    def start(self) -> None:
        if self._pending is None:
            self._pending = self.network.sim.schedule(
                self.interval_us, self._tick
            )

    def stop(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self.balance_once()
        self._pending = self.network.sim.schedule(self.interval_us, self._tick)

    # ------------------------------------------------------------------
    def balance_once(self) -> int:
        """One measurement + migration pass; returns migrations made."""
        moved = 0
        now = self.network.sim.now
        # det: allow(NodeId keys inserted in topology-build order)
        for switch in self.network.switches.values():
            # det: allow(int keys inserted in replay-deterministic forwarding order)
            for out_port, total in switch.stats.per_output_forwarded.items():
                key = (switch.node_id, out_port)
                previous = self._last_counts.get(key, 0)
                self._last_counts[key] = total
                delta = total - previous
                port = switch.ports[out_port]
                if port.link is None or not port.link.working:
                    continue
                capacity = self.interval_us / port.link.cell_time_us
                if capacity <= 0 or delta / capacity < self.high_watermark:
                    continue
                victim = self._busiest_circuit(switch, out_port)
                if victim is None:
                    continue
                last = self._last_migration.get(victim, -1e18)
                if now - last < self.cooldown_us:
                    continue
                if switch.reroute_circuit(victim):
                    self._last_migration[victim] = now
                    self.migrations += 1
                    moved += 1
        return moved

    def _busiest_circuit(self, switch, out_port: int) -> Optional[VcId]:
        best_vc: Optional[VcId] = None
        best_count = -1
        for card in switch.cards:
            for entry in card.routing_table.entries():
                if entry.out_port != out_port:
                    continue
                if entry.cells_forwarded > best_count:
                    best_count = entry.cells_forwarded
                    best_vc = entry.vc
        return best_vc
