"""Administrative disable-and-repair: route around a sick link.

The paper's position (section 2) is that the reconfiguration layer
turns component failure into a routine event: take the component out,
let the spanning-tree/flood machinery rebuild routes without it, put it
back when fixed.  This solution applies that posture to *intermittent*
faults, the kind the skeptic exists for: a link that is corrupting
cells faster than some threshold is administratively failed (a
deliberate :meth:`~repro.net.link.Link.fail`, indistinguishable to the
reconfiguration layer from pulling the plug), repaired off-line for
``repair_delay_us``, then restored -- consuming two reconfiguration
epochs per repair cycle.

Two disciplines keep this honest:

- **transition safety** -- a link is only disabled when its endpoints
  remain connected through the surviving working switch graph, so the
  cure never partitions the network the way the disease might not have
  (the consistent-update rule: verify the post-removal topology before
  acting);
- **bounded appetite** -- at most ``max_repairs_per_link`` cycles per
  link per scenario, so a persistently noisy link cannot keep the
  network in reconfiguration forever; after the budget, its loss is
  endured.

The threshold decision runs on the link's adjudication hook, but the
repair itself is a zero-delay scheduled event: ``Link.fail`` fans out
to state observers, which must not reenter from the middle of a
``_deliver`` call.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.net.cell import Cell
from repro.net.link import Link
from repro.solutions.base import Solution, register


class DisableAndRepair(Solution):
    """Threshold-triggered administrative link repair."""

    name = "disable_and_repair"

    def __init__(
        self,
        error_threshold: int = 5,
        window_us: float = 20_000.0,
        repair_delay_us: float = 60_000.0,
        max_repairs_per_link: int = 2,
    ) -> None:
        super().__init__()
        if error_threshold < 1:
            raise ValueError(
                f"error_threshold must be >= 1, got {error_threshold}"
            )
        if repair_delay_us <= 0:
            raise ValueError(
                f"repair_delay_us must be positive, got {repair_delay_us}"
            )
        self.error_threshold = error_threshold
        self.window_us = window_us
        self.repair_delay_us = repair_delay_us
        self.max_repairs_per_link = max_repairs_per_link
        self._watched: List[Link] = []
        #: per-link sliding window of corrupt-cell observation times.
        self._recent: Dict[int, Deque[float]] = {}
        self._repairs_used: Dict[int, int] = {}
        #: links currently held down for repair -> their restore event.
        self._in_repair: Dict[int, Tuple[Link, object]] = {}
        self.repairs_started = 0
        self.repairs_completed = 0
        self.unsafe_skips = 0
        self.corrupt_observed = 0

    # ------------------------------------------------------------------
    def attach(self, net) -> None:
        super().attach(net)
        for edge, link in sorted(net.links.items()):
            (node_a, _), (node_b, _) = edge
            if not (node_a.is_switch and node_b.is_switch):
                continue  # a host access link has no route around it
            if link.adjudicator is not None:
                raise ValueError(
                    f"{link!r} already has an adjudication hook attached"
                )
            link.adjudicator = self._adjudicate
            self._watched.append(link)
            self._recent[id(link)] = deque()
            self._repairs_used[id(link)] = 0
        probes = self.probes
        self._c_started = probes.counter("repairs_started")
        self._c_completed = probes.counter("repairs_completed")
        self._c_epochs = probes.counter("epochs_consumed")
        self._c_unsafe = probes.counter("unsafe_skips")
        self._c_corrupt = probes.counter("corrupt_observed")
        probes.gauge("links_in_repair", lambda: len(self._in_repair))

    # ------------------------------------------------------------------
    def _adjudicate(
        self, link: Link, direction: int, cell: Cell, reason: str
    ) -> None:
        if reason not in ("error", "filtered"):
            return  # "dead" is an outage, not noise; nothing to decide
        self.corrupt_observed += 1
        self._c_corrupt.increment()
        if id(link) in self._in_repair:
            return
        if self._repairs_used[id(link)] >= self.max_repairs_per_link:
            return
        window = self._recent[id(link)]
        now = link.sim.now
        window.append(now)
        while window and window[0] < now - self.window_us:
            window.popleft()
        if len(window) < self.error_threshold:
            return
        window.clear()
        # Decide here, act between deliveries: fail() fans out to the
        # reconfiguration machinery, which may not reenter from inside
        # this _deliver call.
        link.sim.schedule(0.0, self._begin_repair, link)

    def _begin_repair(self, link: Link) -> None:
        if id(link) in self._in_repair or not link.working:
            return  # a scenario fault beat us to it
        if self._repairs_used[id(link)] >= self.max_repairs_per_link:
            return
        if not self._safe_to_disable(link):
            self.unsafe_skips += 1
            self._c_unsafe.increment()
            return
        self._repairs_used[id(link)] += 1
        self.repairs_started += 1
        self._c_started.increment()
        self._c_epochs.increment()  # the disable forces one epoch
        link.set_error_rate(0.0)  # the repair fixes the physical fault
        link.fail()
        restore_event = link.sim.schedule(
            self.repair_delay_us, self._restore, link
        )
        self._in_repair[id(link)] = (link, restore_event)

    def _restore(self, link: Link) -> None:
        if self._in_repair.pop(id(link), None) is None:
            return
        self.repairs_completed += 1
        self._c_completed.increment()
        self._c_epochs.increment()  # ...and the restore forces another
        link.restore()

    # ------------------------------------------------------------------
    def _safe_to_disable(self, link: Link) -> bool:
        """Would the working switch graph stay connected without
        ``link``?  BFS over every other working switch-switch link."""
        adjacency: Dict[object, List[object]] = {}
        for edge, other in self.net.links.items():
            if other is link or not other.working:
                continue
            (node_a, _), (node_b, _) = edge
            if not (node_a.is_switch and node_b.is_switch):
                continue
            adjacency.setdefault(node_a, []).append(node_b)
            adjacency.setdefault(node_b, []).append(node_a)
        endpoints = [
            node
            for edge, candidate in self.net.links.items()
            if candidate is link
            for (node, _) in edge
        ]
        if len(endpoints) != 2:
            return False
        start, goal = endpoints
        seen: Set[object] = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            if node == goal:
                return True
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return False

    # ------------------------------------------------------------------
    def finish(self, runner) -> None:
        """Release every link still held for repair so the scenario's
        final reconvergence demand stays fair."""
        for link, restore_event in list(self._in_repair.values()):
            restore_event.cancel()
            self._restore(link)

    def metrics(self) -> Dict[str, float]:
        return {
            "repairs_started": self.repairs_started,
            "repairs_completed": self.repairs_completed,
            "epochs_consumed": self._c_epochs.value if self.probes else 0,
            "unsafe_skips": self.unsafe_skips,
            "corrupt_observed": self.corrupt_observed,
        }

    def invariants(self, net) -> List:
        from repro.faults.invariants import InvariantResult

        if self._in_repair:
            held = ", ".join(repr(l) for l, _ in self._in_repair.values())
            return [
                InvariantResult(
                    "repaired links released", False,
                    f"still held down at scenario end: {held}",
                )
            ]
        return [
            InvariantResult(
                "repaired links released", True,
                f"{self.repairs_completed}/{self.repairs_started} repair "
                f"cycles completed, {self.unsafe_skips} skipped as unsafe",
            )
        ]


register(DisableAndRepair.name, DisableAndRepair)
