"""Slot-synchronous single-switch fabric simulators.

These model exactly the crossbar semantics of section 3: time advances in
cell slots; at each slot new cells arrive at inputs, a scheduler pairs
inputs with outputs, and each paired input forwards one cell.  Three
buffer organisations are provided, matching the paper's comparison:

- :class:`VoqFabric` -- AN2's random-access input buffers: "Cells that
  cannot be forwarded in a time slot are retained at the input in a queue
  associated with their virtual circuit.  The first cell of any queued
  virtual circuit can be selected for transmission."  (A queue per
  (input, output) pair -- in a single-switch experiment a virtual circuit
  is identified by its output.)  Queues are unbounded unless
  ``per_vc_capacity`` gives each circuit its own fixed buffer pool.
- :class:`FifoFabric` -- AN1-style FIFO input buffers, exhibiting
  head-of-line blocking (the 58% ceiling), with unbounded queues.
- :class:`OutputQueueFabric` -- output buffering with internal speedup
  ``k = N``: every waiting cell may cross to its output in the slot it
  arrives ("typically by replicating the fabric k times"), with unbounded
  buffers -- the paper's performance yardstick.

Guaranteed traffic enters :class:`VoqFabric` through an optional frame
schedule: scheduled (input, output) pairs are served first from the
guaranteed queues, and best-effort matching fills the remaining ports --
including reserved slots whose guaranteed queue is empty, per section 4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.matching.bitmask import MatchResult, Matching
from repro.sim.monitor import Tally
from repro.switch.crossbar import Crossbar
from repro.traffic.arrivals import ArrivalProcess

Arrival = Tuple[int, int]


@dataclass
class FabricMetrics:
    """Measurements accumulated over a fabric run."""

    slots: int = 0
    cells_offered: int = 0
    cells_delivered: int = 0
    cells_dropped: int = 0
    latency: Tally = field(default_factory=lambda: Tally("latency_slots"))
    iterations_to_maximal: Tally = field(
        default_factory=lambda: Tally("iterations_to_maximal")
    )
    maximal_within: Dict[int, int] = field(default_factory=dict)
    slots_with_backlog: int = 0
    delivered_per_pair: Dict[Arrival, int] = field(default_factory=dict)

    def record_delivery(self, pair: Arrival, waited_slots: int) -> None:
        self.cells_delivered += 1
        self.latency.record(waited_slots)
        self.delivered_per_pair[pair] = self.delivered_per_pair.get(pair, 0) + 1

    def utilization(self, n_ports: int) -> float:
        """Delivered cells per port per slot (1.0 = all links saturated)."""
        if self.slots == 0:
            return 0.0
        return self.cells_delivered / (self.slots * n_ports)


class VoqFabric:
    """Random-access input buffers plus a pluggable matcher.

    The fabric's :class:`~repro.switch.crossbar.Crossbar` holds the
    request matrix -- input ``i`` requests output ``o`` iff the
    (``i``, ``o``) queue is non-empty -- flipped when a queue is created
    and when its last cell is delivered.  Schedulers that expose
    ``match_masks`` (the kernel in :mod:`repro.core.matching.bitmask`)
    are run by the crossbar on that matrix; set-based schedulers (maximum
    matching, the oracle's reference matchers) get per-slot request sets
    built from the queues themselves, so both plug in unchanged.
    """

    def __init__(
        self,
        n_ports: int,
        scheduler,
        per_vc_capacity: Optional[int] = None,
        frame_schedule: Optional[Sequence[Matching]] = None,
    ) -> None:
        """Args:
            n_ports: switch radix.
            scheduler: any object with ``match(requests, pre_matched)``
                returning a :class:`MatchResult` (PIM, iSLIP, maximum).
                Objects that additionally provide ``match_masks`` are
                called through :meth:`Crossbar.schedule` on the
                maintained request matrix.
            per_vc_capacity: max cells per (input, output) queue -- AN2's
                per-virtual-circuit buffer pools, where one full circuit
                never steals another circuit's buffers (``None`` =
                unbounded); overflow drops the arriving cell.
            frame_schedule: per-slot guaranteed reservations, cycled with
                period ``len(frame_schedule)``; each entry maps input ->
                output for that slot.
        """
        self.n_ports = n_ports
        self.scheduler = scheduler
        self.per_vc_capacity = per_vc_capacity
        self.frame_schedule = list(frame_schedule) if frame_schedule else None
        # queues[input][output] -> deque of arrival slots (best effort).
        self.queues: List[Dict[int, Deque[int]]] = [
            {} for _ in range(n_ports)
        ]
        # Input i requests output o iff queues[i][o] exists, so the
        # per-slot scheduling call never walks the queue dictionaries.
        self.crossbar = Crossbar(n_ports, scheduler)
        self._use_masks = hasattr(scheduler, "match_masks")
        # Guaranteed queues, same indexing.
        self.guaranteed_queues: List[Dict[int, Deque[int]]] = [
            {} for _ in range(n_ports)
        ]
        self.metrics = FabricMetrics()

    # ------------------------------------------------------------------
    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        """Enqueue a best-effort cell; returns False if dropped (overflow)."""
        metrics = self.metrics
        metrics.cells_offered += 1
        if self.per_vc_capacity is not None:
            existing = self.queues[input_port].get(output_port)
            if existing is not None and len(existing) >= self.per_vc_capacity:
                metrics.cells_dropped += 1
                return False
        queues = self.queues[input_port]
        queue = queues.get(output_port)
        if queue is None:
            # Avoid setdefault: it would construct a throwaway deque on
            # every offered cell once the queue exists.
            queue = queues[output_port] = deque()
            self.crossbar.request(input_port, output_port)
        queue.append(slot)
        return True

    def offer_batch(self, cells: Sequence[Arrival], slot: int) -> None:
        """Enqueue one slot's best-effort arrivals in a single call.

        Semantically identical to calling :meth:`offer` per cell (and
        falls back to exactly that when ``per_vc_capacity`` is set, so
        drop accounting is unchanged); the unbounded common case skips
        the per-cell method dispatch, which matters at saturation where
        every slot offers ``n_ports`` cells.
        """
        if self.per_vc_capacity is not None:
            # The capacity check lives in offer().
            for input_port, output_port in cells:
                self.offer(input_port, output_port, slot)
            return
        self.metrics.cells_offered += len(cells)
        all_queues = self.queues
        for input_port, output_port in cells:
            try:
                # At any sustained load the VOQ almost always exists.
                all_queues[input_port][output_port].append(slot)
            except KeyError:
                all_queues[input_port][output_port] = deque((slot,))
                self.crossbar.request(input_port, output_port)

    def offer_guaranteed(
        self, input_port: int, output_port: int, slot: int
    ) -> None:
        """Enqueue a guaranteed cell (its buffers are reserved; no drop)."""
        self.metrics.cells_offered += 1
        queue = self.guaranteed_queues[input_port].setdefault(
            output_port, deque()
        )
        queue.append(slot)

    # ------------------------------------------------------------------
    def step(self, slot: int) -> MatchResult:
        """Run one cell slot: guaranteed transfers, then best-effort fill."""
        pre_matched: Matching = {}
        if self.frame_schedule:
            reservations = self.frame_schedule[slot % len(self.frame_schedule)]
            for input_port, output_port in reservations.items():
                queue = self.guaranteed_queues[input_port].get(output_port)
                if queue:
                    # A guaranteed cell is present: the slot is used.
                    waited = slot - queue.popleft()
                    if not queue:
                        del self.guaranteed_queues[input_port][output_port]
                    self.metrics.record_delivery(
                        (input_port, output_port), waited
                    )
                    pre_matched[input_port] = output_port
                # else: the reserved slot is free for best-effort traffic.

        if self._use_masks:
            result = self.crossbar.schedule(pre_matched)
            # The first round grants something iff some unreserved input
            # asked for an unreserved output.
            if result.new_matches_per_iteration[0]:
                self.metrics.slots_with_backlog += 1
        else:
            # Hoist the reserved-output lookup out of the per-input loop:
            # ``pre_matched.values()`` is rebuilt on every membership test
            # when used inline.
            reserved_outputs: Set[int] = set(pre_matched.values())
            requests: List[Set[int]] = []
            for input_port in range(self.n_ports):
                if input_port in pre_matched:
                    requests.append(set())
                elif reserved_outputs:
                    requests.append(
                        {
                            o
                            for o in self.queues[input_port]
                            if o not in reserved_outputs
                        }
                    )
                else:
                    requests.append(set(self.queues[input_port]))
            if any(requests):
                self.metrics.slots_with_backlog += 1
            result = self.scheduler.match(requests, pre_matched=pre_matched)
        metrics = self.metrics
        bucket = result.iterations_to_maximal
        if bucket is not None:
            metrics.iterations_to_maximal.record(bucket)
            try:
                metrics.maximal_within[bucket] += 1
            except KeyError:
                metrics.maximal_within[bucket] = 1
        # Delivery loop, with metrics.record_delivery inlined: one
        # delivered cell per matched pair is the hottest path in every
        # load sweep, and the bound locals below are worth ~20% of a
        # saturated N=16 slot.
        queues = self.queues
        latency_samples = metrics.latency._samples
        delivered_per_pair = metrics.delivered_per_pair
        delivered = len(result.matching)
        # ``items()`` already materialises each pair as a tuple; reusing
        # it as the per-pair dict key avoids a second allocation per cell.
        for pair in result.matching.items():
            input_port, output_port = pair
            if pre_matched and input_port in pre_matched:
                delivered -= 1
                continue  # already served from the guaranteed queue
            try:
                queue = queues[input_port][output_port]
            except KeyError:
                raise RuntimeError(
                    f"scheduler matched empty queue {input_port}->{output_port}"
                ) from None
            waited = slot - queue.popleft()
            if not queue:
                del queues[input_port][output_port]
                self.crossbar.withdraw(input_port, output_port)
            latency_samples.append(waited)
            try:
                delivered_per_pair[pair] += 1
            except KeyError:
                delivered_per_pair[pair] = 1
        metrics.cells_delivered += delivered
        metrics.slots += 1
        return result


class FifoFabric:
    """A single FIFO queue per input: the head-of-line blocking baseline."""

    def __init__(self, n_ports: int, scheduler) -> None:
        self.n_ports = n_ports
        self.scheduler = scheduler
        self.queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(n_ports)
        ]
        self.metrics = FabricMetrics()

    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        self.metrics.cells_offered += 1
        self.queues[input_port].append((slot, output_port))
        return True

    def step(self, slot: int) -> MatchResult:
        heads: List[Optional[int]] = [
            queue[0][1] if queue else None for queue in self.queues
        ]
        if any(h is not None for h in heads):
            self.metrics.slots_with_backlog += 1
        result = self.scheduler.match_heads(heads)
        for input_port, output_port in result.matching.items():
            arrival, head_output = self.queues[input_port].popleft()
            assert head_output == output_port
            self.metrics.record_delivery(
                (input_port, output_port), slot - arrival
            )
        self.metrics.slots += 1
        return result


class OutputQueueFabric:
    """Output buffering with internal fabric speedup ``k = n_ports``.

    Per slot: every cell offered to an output crosses the fabric into
    that output's queue (oldest-first, then in offer order -- the
    replicated-fabric arbitration), then each output transmits one cell.
    No cell ever waits at an input, which is the paper's "maximum
    attainable" comparison point for E3.
    """

    def __init__(self, n_ports: int) -> None:
        self.n_ports = n_ports
        self.output_queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(n_ports)
        ]
        self.metrics = FabricMetrics()

    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        """Cross the fabric at once: at most ``n_ports`` cells arrive for
        one output per slot, and the speedup moves that many."""
        self.metrics.cells_offered += 1
        self.output_queues[output_port].append((slot, input_port))
        return True

    def step(self, slot: int) -> None:
        # Departure: each output transmits one cell.
        for output_port in range(self.n_ports):
            out_queue = self.output_queues[output_port]
            if out_queue:
                arrival, input_port = out_queue.popleft()
                self.metrics.record_delivery(
                    (input_port, output_port), slot - arrival
                )
        self.metrics.slots += 1


def run_fabric(
    fabric,
    traffic: ArrivalProcess,
    n_slots: int,
    warmup_slots: int = 0,
) -> FabricMetrics:
    """Drive a fabric with ``traffic`` for ``n_slots`` slots.

    ``warmup_slots`` initial slots run but their deliveries are not
    counted (the metrics object is replaced after warmup).
    """
    offer_batch = getattr(fabric, "offer_batch", None)
    for slot in range(n_slots + warmup_slots):
        if slot == warmup_slots:
            fabric.metrics = FabricMetrics()
        arrivals = traffic.arrivals(slot)
        if offer_batch is not None:
            offer_batch(arrivals, slot)
        else:
            for input_port, output_port in arrivals:
                fabric.offer(input_port, output_port, slot)
        fabric.step(slot)
    return fabric.metrics
