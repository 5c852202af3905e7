"""Tests for the slot-synchronous fabric simulators."""

import random

from repro.conform.reference import ParallelIterativeMatcher
from repro.core.matching.fifo import FifoScheduler
from repro.switch.fabric import (
    FifoFabric,
    OutputQueueFabric,
    VoqFabric,
    run_fabric,
)
from repro.traffic.arrivals import BernoulliUniform, Permutation


def make_voq(n=4, iterations=4, seed=0, **kwargs):
    return VoqFabric(
        n, ParallelIterativeMatcher(n, iterations, random.Random(seed)), **kwargs
    )


def voq_backlog(fabric):
    return sum(len(q) for queues in fabric.queues for q in queues.values())


class TestVoqFabric:
    def test_cells_conserved(self):
        fabric = make_voq()
        traffic = BernoulliUniform(4, 0.5, random.Random(1))
        metrics = run_fabric(fabric, traffic, 2000)
        assert (
            metrics.cells_offered
            == metrics.cells_delivered + voq_backlog(fabric) + metrics.cells_dropped
        )

    def test_single_flow_full_rate(self):
        fabric = make_voq()
        for slot in range(100):
            fabric.offer(0, 1, slot)
            fabric.step(slot)
        assert fabric.metrics.cells_delivered == 100
        assert fabric.metrics.latency.maximum == 0

    def test_permutation_traffic_no_loss_of_throughput(self):
        fabric = make_voq(n=8, iterations=1, seed=3)
        traffic = Permutation(8, 1.0, rng=random.Random(2))
        metrics = run_fabric(fabric, traffic, 500, warmup_slots=50)
        assert metrics.utilization(8) > 0.99

    def test_buffer_capacity_drops(self):
        # Per-VC pools: a full (0, 1) queue drops its own arrivals only.
        fabric = make_voq(per_vc_capacity=2)
        assert fabric.offer(0, 1, 0)
        assert fabric.offer(0, 1, 0)
        assert not fabric.offer(0, 1, 0)
        assert fabric.offer(0, 2, 0)
        assert fabric.metrics.cells_dropped == 1
        assert fabric.metrics.cells_offered == 4
        fabric.step(0)  # (0, 1) or (0, 2) drains one cell
        assert voq_backlog(fabric) == 2

    def test_latency_counts_waiting_slots(self):
        fabric = make_voq()
        # Two cells at the same input for the same output: second waits.
        fabric.offer(0, 1, 0)
        fabric.offer(0, 1, 0)
        fabric.step(0)
        fabric.step(1)
        assert sorted(fabric.metrics.latency.samples()) == [0, 1]

    def test_iteration_stats_recorded(self):
        fabric = make_voq(n=8)
        traffic = BernoulliUniform(8, 0.9, random.Random(4))
        metrics = run_fabric(fabric, traffic, 300)
        assert metrics.iterations_to_maximal.count > 0
        assert metrics.iterations_to_maximal.maximum <= 4 * 8

    def test_frame_schedule_overlay_guaranteed_first(self):
        schedule = [{0: 1}, {}]  # slot 0 of every 2 reserved for 0->1
        fabric = VoqFabric(
            4,
            ParallelIterativeMatcher(4, 4, random.Random(0)),
            frame_schedule=schedule,
        )
        fabric.offer_guaranteed(0, 1, 0)
        fabric.offer(2, 1, 0)  # best-effort for the same output
        fabric.step(0)  # guaranteed wins the reserved slot
        assert fabric.metrics.delivered_per_pair.get((0, 1)) == 1
        fabric.step(1)  # best-effort gets the next slot
        assert fabric.metrics.delivered_per_pair.get((2, 1)) == 1

    def test_unused_reserved_slot_available_to_best_effort(self):
        schedule = [{0: 1}]
        fabric = VoqFabric(
            4,
            ParallelIterativeMatcher(4, 4, random.Random(0)),
            frame_schedule=schedule,
        )
        fabric.offer(2, 1, 0)  # no guaranteed cell present
        fabric.step(0)
        assert fabric.metrics.delivered_per_pair.get((2, 1)) == 1


class TestFifoFabric:
    def test_head_of_line_blocking_observable(self):
        fabric = FifoFabric(4, FifoScheduler(4, random.Random(0)))
        # Input 0: head wants output 1; behind it a cell for output 2.
        fabric.offer(0, 1, 0)
        fabric.offer(0, 2, 0)
        # Input 1 also wants output 1 and wins sometimes; run one slot
        # where input 1 wins: then input 0 is fully blocked even though
        # output 2 is idle.
        fabric.offer(1, 1, 0)
        result = fabric.step(0)
        delivered = fabric.metrics.cells_delivered
        assert delivered == 1  # only one of the two head cells for output 1
        assert fabric.metrics.delivered_per_pair.get((0, 2)) is None

    def test_conservation(self):
        fabric = FifoFabric(4, FifoScheduler(4, random.Random(1)))
        traffic = BernoulliUniform(4, 0.9, random.Random(2))
        metrics = run_fabric(fabric, traffic, 1000)
        assert metrics.cells_offered == metrics.cells_delivered + sum(
            len(q) for q in fabric.queues
        )


class TestOutputQueueFabric:
    def test_full_speedup_never_input_blocks(self):
        fabric = OutputQueueFabric(4)
        for i in range(4):
            fabric.offer(i, 0, 0)  # all to one output
        fabric.step(0)
        # All 4 crossed the fabric; one departed.
        assert fabric.metrics.cells_delivered == 1
        assert len(fabric.output_queues[0]) == 3

    def test_oldest_first_service(self):
        fabric = OutputQueueFabric(2)
        fabric.offer(0, 0, 0)
        fabric.step(0)
        fabric.offer(1, 0, 1)
        fabric.step(1)
        pairs = list(fabric.metrics.delivered_per_pair)
        assert (0, 0) in pairs and (1, 0) in pairs
        assert fabric.metrics.latency.maximum <= 1


class TestRunner:
    def test_warmup_excluded_from_metrics(self):
        fabric = make_voq()
        traffic = BernoulliUniform(4, 0.5, random.Random(5))
        metrics = run_fabric(fabric, traffic, 100, warmup_slots=50)
        assert metrics.slots == 100
