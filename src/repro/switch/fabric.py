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
  is identified by its output.)
- :class:`FifoFabric` -- AN1-style FIFO input buffers, exhibiting
  head-of-line blocking (the 58% ceiling).
- :class:`OutputQueueFabric` -- output buffering with internal speedup
  ``k``: up to ``k`` cells may cross to one output per slot ("typically by
  replicating the fabric k times"); with ``k = N`` and unbounded buffers
  this is the paper's performance yardstick.

Guaranteed traffic enters :class:`VoqFabric` through an optional frame
schedule: scheduled (input, output) pairs are served first from the
guaranteed queues, and best-effort matching fills the remaining ports --
including reserved slots whose guaranteed queue is empty, per section 4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.matching.bitmask import MatchResult, Matching
from repro.sim.monitor import ProbeSet, Tally
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

    @classmethod
    def on_probes(cls, probes: ProbeSet) -> "FabricMetrics":
        """A metrics object whose tallies live in a registry node.

        The tallies are reset so a fresh ``FabricMetrics`` starts empty
        even when the probe set is reused across warmup resets.
        """
        latency = probes.tally("latency_slots")
        iterations = probes.tally("iterations_to_maximal")
        latency.reset()
        iterations.reset()
        return cls(latency=latency, iterations_to_maximal=iterations)


def _fabric_metrics(probes: Optional[ProbeSet]) -> FabricMetrics:
    if probes is None:
        return FabricMetrics()
    return FabricMetrics.on_probes(probes)


def _register_fabric_gauges(fabric, probes: ProbeSet) -> None:
    """Counter gauges reading through ``fabric.metrics`` (which warmup
    resets swap out, hence the indirection)."""
    probes.gauge("slots", lambda: fabric.metrics.slots)
    probes.gauge("cells_offered", lambda: fabric.metrics.cells_offered)
    probes.gauge("cells_delivered", lambda: fabric.metrics.cells_delivered)
    probes.gauge("cells_dropped", lambda: fabric.metrics.cells_dropped)
    probes.gauge(
        "slots_with_backlog", lambda: fabric.metrics.slots_with_backlog
    )
    probes.gauge(
        "utilization", lambda: fabric.metrics.utilization(fabric.n_ports)
    )


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
        buffer_capacity: Optional[int] = None,
        per_vc_capacity: Optional[int] = None,
        frame_schedule: Optional[Sequence[Matching]] = None,
        *,
        probes: Optional[ProbeSet] = None,
        tracer=None,
        component: str = "fabric",
    ) -> None:
        """Args:
            n_ports: switch radix.
            scheduler: any object with ``match(requests, pre_matched)``
                returning a :class:`MatchResult` (PIM, iSLIP, maximum).
                Objects that additionally provide ``match_masks`` are
                called through :meth:`Crossbar.schedule` on the
                maintained request matrix.
            buffer_capacity: max best-effort cells buffered per input
                (``None`` = unbounded); overflow drops the arriving cell.
            per_vc_capacity: max cells per (input, output) queue -- AN2's
                per-virtual-circuit buffer pools, where one full circuit
                never steals another circuit's buffers.
            frame_schedule: per-slot guaranteed reservations, cycled with
                period ``len(frame_schedule)``; each entry maps input ->
                output for that slot.
            probes: registry node to host this fabric's metrics.
            tracer: optional :class:`~repro.obs.trace.Tracer`; emits
                ``fabric`` events (``match.round`` per slot and the
                ``voq.active``/``voq.idle`` occupancy transitions) with
                the slot index as the timestamp.
            component: component name stamped on trace records.
        """
        self.n_ports = n_ports
        self.scheduler = scheduler
        self.buffer_capacity = buffer_capacity
        self.per_vc_capacity = per_vc_capacity
        self.frame_schedule = list(frame_schedule) if frame_schedule else None
        # queues[input][output] -> deque of arrival slots (best effort).
        self.queues: List[Dict[int, Deque[int]]] = [
            {} for _ in range(n_ports)
        ]
        # Occupancy counters back the capacity checks; with unbounded
        # buffers nothing reads them per slot, so the hot loops skip the
        # upkeep and backlog() counts the queues directly instead.
        self._track_occupancy = (
            buffer_capacity is not None or per_vc_capacity is not None
        )
        self._occupancy: List[int] = [0] * n_ports
        # Input i requests output o iff queues[i][o] exists, so the
        # per-slot scheduling call never walks the queue dictionaries.
        self.crossbar = Crossbar(n_ports, scheduler)
        self._use_masks = hasattr(scheduler, "match_masks")
        # Guaranteed queues, same indexing.
        self.guaranteed_queues: List[Dict[int, Deque[int]]] = [
            {} for _ in range(n_ports)
        ]
        self.tracer = tracer
        self.component = component
        self._probes = probes
        self.metrics = _fabric_metrics(probes)
        if probes is not None:
            _register_fabric_gauges(self, probes)
            probes.gauge("backlog", self.total_backlog)

    def reset_metrics(self) -> None:
        """Start a fresh measurement interval (e.g. after warmup)."""
        self.metrics = _fabric_metrics(self._probes)

    # ------------------------------------------------------------------
    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        """Enqueue a best-effort cell; returns False if dropped (overflow)."""
        metrics = self.metrics
        metrics.cells_offered += 1
        if (
            self.buffer_capacity is not None
            and self._occupancy[input_port] >= self.buffer_capacity
        ):
            metrics.cells_dropped += 1
            return False
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
            if self.tracer is not None:
                self.tracer.emit(
                    slot, "fabric", self.component, "voq.active",
                    input=input_port, output=output_port,
                )
        queue.append(slot)
        if self._track_occupancy:
            self._occupancy[input_port] += 1
        return True

    def offer_batch(self, cells: Sequence[Arrival], slot: int) -> None:
        """Enqueue one slot's best-effort arrivals in a single call.

        Semantically identical to calling :meth:`offer` per cell (and
        falls back to exactly that when buffer limits are configured,
        so drop accounting is unchanged); the unbounded common case
        skips the per-cell method dispatch, which matters at saturation
        where every slot offers ``n_ports`` cells.
        """
        if (
            self.buffer_capacity is not None
            or self.per_vc_capacity is not None
            or self.tracer is not None
        ):
            # Capacity checks and voq.active tracing live in offer();
            # traced runs take the per-cell path so transitions are seen.
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

    def backlog(self, input_port: int) -> int:
        if self._track_occupancy:
            return self._occupancy[input_port]
        return sum(len(q) for q in self.queues[input_port].values())

    def total_backlog(self) -> int:
        if self._track_occupancy:
            return sum(self._occupancy)
        return sum(
            len(q) for queues in self.queues for q in queues.values()
        )

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
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                slot, "fabric", self.component, "match.round",
                matched=len(result.matching), iterations=bucket,
            )
        # Delivery loop, with metrics.record_delivery inlined: one
        # delivered cell per matched pair is the hottest path in every
        # load sweep, and the bound locals below are worth ~20% of a
        # saturated N=16 slot.
        queues = self.queues
        occupancy = self._occupancy
        track_occupancy = self._track_occupancy
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
                if tracer is not None:
                    tracer.emit(
                        slot, "fabric", self.component, "voq.idle",
                        input=input_port, output=output_port,
                    )
            if track_occupancy:
                occupancy[input_port] -= 1
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

    def __init__(
        self,
        n_ports: int,
        scheduler,
        buffer_capacity: Optional[int] = None,
        *,
        probes: Optional[ProbeSet] = None,
    ) -> None:
        self.n_ports = n_ports
        self.scheduler = scheduler
        self.buffer_capacity = buffer_capacity
        self.queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(n_ports)
        ]
        self._probes = probes
        self.metrics = _fabric_metrics(probes)
        if probes is not None:
            _register_fabric_gauges(self, probes)

    def reset_metrics(self) -> None:
        self.metrics = _fabric_metrics(self._probes)

    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        self.metrics.cells_offered += 1
        if (
            self.buffer_capacity is not None
            and len(self.queues[input_port]) >= self.buffer_capacity
        ):
            self.metrics.cells_dropped += 1
            return False
        self.queues[input_port].append((slot, output_port))
        return True

    def backlog(self, input_port: int) -> int:
        return len(self.queues[input_port])

    def total_backlog(self) -> int:
        return sum(len(q) for q in self.queues)

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
    """Output buffering with internal fabric speedup ``k``.

    Per slot: each output pulls up to ``k`` waiting cells across the
    fabric (oldest-first, ties by input index -- the replicated-fabric
    arbitration), then transmits one cell from its output queue.  With
    ``k = n_ports`` no cell ever waits at an input, which is the paper's
    "maximum attainable" comparison point for E3.
    """

    def __init__(
        self,
        n_ports: int,
        speedup: Optional[int] = None,
        buffer_capacity: Optional[int] = None,
        *,
        probes: Optional[ProbeSet] = None,
    ) -> None:
        self.n_ports = n_ports
        self.speedup = speedup if speedup is not None else n_ports
        if self.speedup < 1:
            raise ValueError(f"speedup {self.speedup} must be >= 1")
        self.buffer_capacity = buffer_capacity
        # Cells waiting at inputs to cross the fabric: (arrival, input) per output.
        self._waiting: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(n_ports)
        ]  # indexed by output
        self.output_queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(n_ports)
        ]
        self._probes = probes
        self.metrics = _fabric_metrics(probes)
        if probes is not None:
            _register_fabric_gauges(self, probes)

    def reset_metrics(self) -> None:
        self.metrics = _fabric_metrics(self._probes)

    def offer(self, input_port: int, output_port: int, slot: int) -> bool:
        self.metrics.cells_offered += 1
        self._waiting[output_port].append((slot, input_port))
        return True

    def total_backlog(self) -> int:
        waiting = sum(len(q) for q in self._waiting)
        queued = sum(len(q) for q in self.output_queues)
        return waiting + queued

    def step(self, slot: int) -> None:
        # Fabric transfer: each output accepts up to ``speedup`` cells.
        for output_port in range(self.n_ports):
            waiting = self._waiting[output_port]
            out_queue = self.output_queues[output_port]
            moved = 0
            while waiting and moved < self.speedup:
                if (
                    self.buffer_capacity is not None
                    and len(out_queue) >= self.buffer_capacity
                ):
                    waiting.popleft()
                    self.metrics.cells_dropped += 1
                    continue
                out_queue.append(waiting.popleft())
                moved += 1
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
    on_slot: Optional[Callable[[int], None]] = None,
) -> FabricMetrics:
    """Drive a fabric with ``traffic`` for ``n_slots`` slots.

    ``warmup_slots`` initial slots run but their deliveries are not
    counted (the metrics object is replaced after warmup).  ``on_slot`` is
    an optional per-slot hook for custom probing.
    """
    offer_batch = getattr(fabric, "offer_batch", None)
    reset_metrics = getattr(fabric, "reset_metrics", None)
    for slot in range(n_slots + warmup_slots):
        if slot == warmup_slots:
            # reset_metrics keeps registry-owned tallies attached; ad-hoc
            # fabrics without it get the old wholesale replacement.
            if reset_metrics is not None:
                reset_metrics()
            else:
                fabric.metrics = FabricMetrics()
        arrivals = traffic.arrivals(slot)
        if offer_batch is not None:
            offer_batch(arrivals, slot)
        else:
            for input_port, output_port in arrivals:
                fabric.offer(input_port, output_port, slot)
        fabric.step(slot)
        if on_slot is not None:
            on_slot(slot)
    return fabric.metrics
