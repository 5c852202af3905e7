"""Tests for the VoqFabric's maintained request matrix and fast paths.

``VoqFabric`` keeps its :class:`~repro.switch.crossbar.Crossbar`'s
request matrix (rows, transposed columns, union of wanted outputs) in
step with the queues so that the kernel never has to rebuild request
sets from them.  These tests pin the invariant (the matrix always
mirrors queue occupancy), the end-to-end equality between a
bitmask-driven and a reference-driven fabric, the ``offer_batch`` fast
path, occupancy tracking in both capacity modes, the construction-time
radix checks, and the ``run_fabric`` warmup semantics.
"""

import random

import pytest

from repro.conform.reference import IslipMatcher, ParallelIterativeMatcher
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.switch.fabric import VoqFabric, run_fabric
from repro.traffic.arrivals import BernoulliUniform
from tests.switch.crossbar_audit import assert_crossbar_mirrors


def assert_masks_mirror_queues(fabric):
    assert_crossbar_mirrors(
        fabric.crossbar,
        [
            {o for o, queue in queues.items() if queue}
            for queues in fabric.queues
        ],
    )


class TestMaskInvariants:
    def test_masks_track_queues_through_run(self):
        fabric = VoqFabric(8, BitmaskPim(8, rng=random.Random(0)))
        traffic = BernoulliUniform(8, 0.8, random.Random(1))
        for slot in range(300):
            for i, o in traffic.arrivals(slot):
                fabric.offer(i, o, slot)
            fabric.step(slot)
            if slot % 25 == 0:
                assert_masks_mirror_queues(fabric)
        assert_masks_mirror_queues(fabric)

    def test_masks_track_queues_with_reference_scheduler(self):
        # The incremental state is maintained regardless of which
        # scheduler consumes it.
        fabric = VoqFabric(4, ParallelIterativeMatcher(4, rng=random.Random(0)))
        traffic = BernoulliUniform(4, 0.9, random.Random(2))
        for slot in range(200):
            for i, o in traffic.arrivals(slot):
                fabric.offer(i, o, slot)
            fabric.step(slot)
        assert_masks_mirror_queues(fabric)

    def test_masks_track_queues_with_drops(self):
        fabric = VoqFabric(
            4, BitmaskPim(4, rng=random.Random(0)), buffer_capacity=3
        )
        traffic = BernoulliUniform(4, 1.0, random.Random(3))
        for slot in range(200):
            for i, o in traffic.arrivals(slot):
                fabric.offer(i, o, slot)
            fabric.step(slot)
            assert_masks_mirror_queues(fabric)
        assert fabric.metrics.cells_dropped > 0

    def test_drained_fabric_clears_all_masks(self):
        fabric = VoqFabric(4, BitmaskPim(4, rng=random.Random(0)))
        for slot in range(20):
            if slot < 5:
                fabric.offer(0, 1, slot)
                fabric.offer(2, 1, slot)
            fabric.step(slot)
        assert fabric.total_backlog() == 0
        assert fabric.crossbar.rows == [0, 0, 0, 0]
        assert fabric.crossbar.cols == [0, 0, 0, 0]
        assert fabric.crossbar.want == 0


class TestRadixChecks:
    """Both failures used to surface late: the first as an ``IndexError``
    from a 64-entry table on some later ``offer``, the second never --
    inputs 4-7 were silently not served."""

    def test_radix_above_the_masks_is_rejected(self):
        with pytest.raises(ValueError, match="80 ports exceed .* 64"):
            VoqFabric(80, ParallelIterativeMatcher(80))

    def test_matcher_of_another_radix_is_rejected(self):
        with pytest.raises(ValueError, match="8-port crossbar .* 4-port"):
            VoqFabric(8, BitmaskPim(4))


class TestStrictEndToEnd:
    def test_bitmask_fabric_equals_reference_fabric(self):
        """The bitmask run is cell-for-cell the reference run."""
        n = 16
        ref_fabric = VoqFabric(
            n, ParallelIterativeMatcher(n, rng=random.Random(7))
        )
        bit_fabric = VoqFabric(n, BitmaskPim(n, rng=random.Random(7)))
        ref = run_fabric(ref_fabric, BernoulliUniform(n, 0.95, random.Random(5)), 800)
        bit = run_fabric(bit_fabric, BernoulliUniform(n, 0.95, random.Random(5)), 800)
        assert bit.cells_delivered == ref.cells_delivered
        assert bit.delivered_per_pair == ref.delivered_per_pair
        assert sorted(bit.latency.samples()) == sorted(ref.latency.samples())

    def test_bitmask_islip_fabric_equals_reference_fabric(self):
        n = 8
        ref_fabric = VoqFabric(n, IslipMatcher(n))
        bit_fabric = VoqFabric(n, BitmaskIslip(n))
        ref = run_fabric(ref_fabric, BernoulliUniform(n, 0.9, random.Random(6)), 800)
        bit = run_fabric(bit_fabric, BernoulliUniform(n, 0.9, random.Random(6)), 800)
        assert bit.cells_delivered == ref.cells_delivered
        assert bit.delivered_per_pair == ref.delivered_per_pair


class TestOfferBatch:
    def _drive(self, fabric, use_batch):
        traffic = BernoulliUniform(4, 0.9, random.Random(11))
        for slot in range(300):
            arrivals = traffic.arrivals(slot)
            if use_batch:
                fabric.offer_batch(arrivals, slot)
            else:
                for i, o in arrivals:
                    fabric.offer(i, o, slot)
            fabric.step(slot)
        return fabric

    def test_batch_equals_per_cell_unbounded(self):
        batched = self._drive(
            VoqFabric(4, BitmaskPim(4, rng=random.Random(1))), True
        )
        single = self._drive(
            VoqFabric(4, BitmaskPim(4, rng=random.Random(1))), False
        )
        assert batched.metrics.cells_offered == single.metrics.cells_offered
        assert batched.metrics.cells_delivered == single.metrics.cells_delivered
        assert (
            batched.metrics.delivered_per_pair
            == single.metrics.delivered_per_pair
        )
        assert_masks_mirror_queues(batched)

    def test_batch_equals_per_cell_with_capacity(self):
        # With a finite buffer, offer_batch must fall back to the
        # drop-aware per-cell path.
        batched = self._drive(
            VoqFabric(
                4, BitmaskPim(4, rng=random.Random(1)), buffer_capacity=5
            ),
            True,
        )
        single = self._drive(
            VoqFabric(
                4, BitmaskPim(4, rng=random.Random(1)), buffer_capacity=5
            ),
            False,
        )
        assert batched.metrics.cells_dropped == single.metrics.cells_dropped
        assert batched.metrics.cells_delivered == single.metrics.cells_delivered


class TestBacklogAccounting:
    def test_backlog_without_occupancy_tracking(self):
        fabric = VoqFabric(4, BitmaskPim(4, rng=random.Random(0)))
        assert not fabric._track_occupancy
        for _ in range(3):
            fabric.offer(0, 1, 0)
        fabric.offer(0, 2, 0)
        fabric.offer(3, 1, 0)
        assert fabric.backlog(0) == 4
        assert fabric.backlog(3) == 1
        assert fabric.total_backlog() == 5

    def test_backlog_with_occupancy_tracking(self):
        fabric = VoqFabric(
            4, BitmaskPim(4, rng=random.Random(0)), buffer_capacity=10
        )
        assert fabric._track_occupancy
        for _ in range(3):
            fabric.offer(0, 1, 0)
        fabric.offer(3, 1, 0)
        assert fabric.backlog(0) == 3
        assert fabric.total_backlog() == 4
        # Both inputs contend for output 1: exactly one delivery per slot.
        fabric.step(0)
        assert fabric.total_backlog() == 3


class _Burst:
    """Arrival process: a fixed burst at slot 0, then silence."""

    def __init__(self, cells):
        self._cells = list(cells)

    def arrivals(self, slot):
        return self._cells if slot == 0 else []


class TestWarmupSemantics:
    def test_pre_warmup_cell_delivered_post_warmup_counts_true_age(self):
        """Satellite: warmup resets metrics, not cell arrival stamps.

        Three cells for the same VOQ arrive at slot 0.  They drain one
        per slot (slots 0, 1, 2).  With ``warmup_slots=2`` the first two
        deliveries land in the discarded warmup metrics; the third is
        recorded post-warmup with its *true* age of 2 slots -- the
        arrival timestamp is not rebased at the warmup boundary.
        """
        fabric = VoqFabric(4, BitmaskPim(4, rng=random.Random(0)))
        metrics = run_fabric(
            fabric, _Burst([(0, 1), (0, 1), (0, 1)]), n_slots=5, warmup_slots=2
        )
        assert metrics.cells_delivered == 1
        assert metrics.latency.samples() == [2]

    def test_warmup_zero_counts_everything(self):
        fabric = VoqFabric(4, BitmaskPim(4, rng=random.Random(0)))
        metrics = run_fabric(
            fabric, _Burst([(0, 1), (0, 1), (0, 1)]), n_slots=5, warmup_slots=0
        )
        assert metrics.cells_delivered == 3
        assert sorted(metrics.latency.samples()) == [0, 1, 2]


class TestFrameScheduleWithBitmask:
    def test_guaranteed_overlay_wins_reserved_slot(self):
        schedule = [{0: 1}, {}]
        fabric = VoqFabric(
            4, BitmaskPim(4, rng=random.Random(0)), frame_schedule=schedule
        )
        fabric.offer_guaranteed(0, 1, 0)
        fabric.offer(2, 1, 0)
        result = fabric.step(0)
        assert result.matching[0] == 1
        assert 2 not in result.matching or result.matching[2] != 1
        assert fabric.metrics.cells_delivered == 1
        fabric.step(1)
        assert fabric.metrics.cells_delivered == 2
        assert_masks_mirror_queues(fabric)
