"""Tests for the FIFO scheduler baseline and the iSLIP ablation."""

import random

import pytest

from repro.conform.reference import IslipMatcher
from repro.core.matching.analysis import is_legal_matching, is_maximal_matching
from repro.core.matching.fifo import FifoScheduler


class TestFifo:
    def test_disjoint_heads_all_win(self):
        fifo = FifoScheduler(4, rng=random.Random(0))
        result = fifo.match_heads([1, 2, 3, 0])
        assert result.matching == {0: 1, 1: 2, 2: 3, 3: 0}

    def test_contending_heads_single_winner(self):
        fifo = FifoScheduler(4, rng=random.Random(0))
        result = fifo.match_heads([2, 2, 2, 2])
        assert len(result.matching) == 1
        assert set(result.matching.values()) == {2}

    def test_none_heads_skipped(self):
        fifo = FifoScheduler(4, rng=random.Random(0))
        result = fifo.match_heads([None, 3, None, None])
        assert result.matching == {1: 3}

    def test_pre_matched_respected(self):
        fifo = FifoScheduler(4, rng=random.Random(0))
        result = fifo.match_heads([1, 1, None, None], pre_matched={3: 1})
        assert result.matching == {3: 1}

    def test_shape_validation(self):
        fifo = FifoScheduler(4)
        with pytest.raises(ValueError):
            fifo.match_heads([None])

    def test_winner_distribution_roughly_fair(self):
        fifo = FifoScheduler(2, rng=random.Random(5))
        wins = {0: 0, 1: 0}
        for _ in range(2000):
            result = fifo.match_heads([0, 0])
            wins[next(iter(result.matching))] += 1
        assert 800 < wins[0] < 1200


class TestIslip:
    def test_legal_and_maximal_with_enough_iterations(self):
        islip = IslipMatcher(8, iterations=8)
        rng = random.Random(1)
        for _ in range(50):
            requests = [
                {o for o in range(8) if rng.random() < 0.5} for _ in range(8)
            ]
            result = islip.match(requests)
            assert is_legal_matching(requests, result.matching)
            assert is_maximal_matching(requests, result.matching)

    def test_pointer_rotation_gives_round_robin_service(self):
        """Two inputs contending for one output alternate wins."""
        islip = IslipMatcher(4, iterations=1)
        winners = []
        for _ in range(6):
            result = islip.match([{0}, {0}, set(), set()])
            winners.append(next(iter(result.matching)))
        # After the first grant, the pointer alternates deterministically.
        assert winners[1:] != [winners[0]] * 5
        assert set(winners) == {0, 1}

    def test_desynchronization_reaches_full_throughput(self):
        """Saturated uniform-all requests: after warmup, every slot matches
        all ports (the classic iSLIP desynchronization property)."""
        n = 4
        islip = IslipMatcher(n, iterations=1)
        sizes = []
        for _ in range(50):
            result = islip.match([set(range(n)) for _ in range(n)])
            sizes.append(len(result.matching))
        assert all(size == n for size in sizes[10:])

    def test_pre_matched_respected(self):
        islip = IslipMatcher(4, iterations=2)
        result = islip.match([{1}, {1, 2}, set(), set()], pre_matched={0: 1})
        assert result.matching[0] == 1
        assert result.matching.get(1) == 2

    def test_shape_validation(self):
        islip = IslipMatcher(4)
        with pytest.raises(ValueError):
            islip.match([set()])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IslipMatcher(0)
        with pytest.raises(ValueError):
            IslipMatcher(4, iterations=0)

    def test_reset_clears_pointers(self):
        islip = IslipMatcher(4)
        islip.match([{0}, {0}, set(), set()])
        islip.reset()
        assert islip.grant_pointers == [0, 0, 0, 0]
        assert islip.accept_pointers == [0, 0, 0, 0]
