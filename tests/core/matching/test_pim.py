"""Tests for parallel iterative matching."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.reference import ParallelIterativeMatcher
from repro.constants import pim_iteration_bound
from repro.core.matching.analysis import (
    is_legal_matching,
    is_maximal_matching,
    maximum_size,
)


def requests_strategy(max_ports=8):
    return st.integers(min_value=2, max_value=max_ports).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n),
            min_size=n,
            max_size=n,
        )
    )


class TestBasics:
    def test_empty_requests_empty_match(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([set(), set(), set(), set()])
        assert result.matching == {}
        assert result.iterations_to_maximal == 1

    def test_single_request_matched_first_iteration(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([{2}, set(), set(), set()])
        assert result.matching == {0: 2}
        assert result.iterations_to_maximal == 1

    def test_permutation_fully_matched(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([{1}, {2}, {3}, {0}])
        assert result.matching == {0: 1, 1: 2, 2: 3, 3: 0}

    def test_conflicting_requests_one_winner(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([{0}, {0}, {0}, {0}])
        assert len(result.matching) == 1
        assert set(result.matching.values()) == {0}

    def test_validation_of_request_shape(self):
        pim = ParallelIterativeMatcher(4)
        with pytest.raises(ValueError):
            pim.match([set()])
        with pytest.raises(ValueError):
            pim.match([{9}, set(), set(), set()])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParallelIterativeMatcher(0)
        with pytest.raises(ValueError):
            ParallelIterativeMatcher(4, iterations=0)

    def test_deterministic_for_fixed_seed(self):
        requests = [{0, 1, 2}, {1, 2}, {2, 3}, {0, 3}]
        a = ParallelIterativeMatcher(4, rng=random.Random(9)).match(requests)
        b = ParallelIterativeMatcher(4, rng=random.Random(9)).match(requests)
        assert a.matching == b.matching


class TestPreMatched:
    def test_pre_matched_pairs_preserved(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([set(), {0, 2}, set(), {2}], pre_matched={0: 1})
        assert result.matching[0] == 1

    def test_pre_matched_output_not_reused(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        # input 1 requests only output 1, which is pre-matched to input 0.
        result = pim.match([set(), {1}, set(), set()], pre_matched={0: 1})
        assert result.matching == {0: 1}

    def test_pre_matched_input_not_rematched(self):
        pim = ParallelIterativeMatcher(4, rng=random.Random(0))
        result = pim.match([{2}, set(), set(), set()], pre_matched={0: 1})
        assert result.matching == {0: 1}

    def test_conflicting_pre_match_rejected(self):
        pim = ParallelIterativeMatcher(4)
        with pytest.raises(ValueError):
            pim.match([set()] * 4, pre_matched={0: 1, 2: 1})


class TestIterationBehaviour:
    def test_iteration_fills_gaps(self):
        # A pattern where one iteration can leave gaps: all inputs want
        # everything, so grants collide; more iterations must fill in.
        requests = [set(range(8)) for _ in range(8)]
        pim = ParallelIterativeMatcher(8, iterations=8, rng=random.Random(1))
        result = pim.match(requests)
        assert len(result.matching) == 8  # perfect match guaranteed

    def test_new_matches_non_increasing_need(self):
        requests = [set(range(8)) for _ in range(8)]
        pim = ParallelIterativeMatcher(8, iterations=8, rng=random.Random(1))
        result = pim.match(requests)
        assert sum(result.new_matches_per_iteration) == len(result.matching)

    def test_average_iterations_below_log_bound(self):
        """E2 (unit-scale): mean iterations to maximal <= log2(N) + 4/3."""
        n = 16
        pim = ParallelIterativeMatcher(n, iterations=n, rng=random.Random(3))
        rng = random.Random(4)
        total, count = 0, 0
        for _ in range(300):
            requests = [
                {o for o in range(n) if rng.random() < 0.5} for _ in range(n)
            ]
            result = pim.match(requests)
            assert result.iterations_to_maximal is not None
            total += result.iterations_to_maximal
            count += 1
        assert total / count <= pim_iteration_bound(n)


@settings(max_examples=100, deadline=None)
@given(requests=requests_strategy())
def test_matching_always_legal(requests):
    n = len(requests)
    pim = ParallelIterativeMatcher(n, iterations=3, rng=random.Random(0))
    result = pim.match(requests)
    assert is_legal_matching(requests, result.matching)


@settings(max_examples=100, deadline=None)
@given(requests=requests_strategy())
def test_enough_iterations_reach_maximal(requests):
    n = len(requests)
    pim = ParallelIterativeMatcher(n, iterations=4 * n, rng=random.Random(1))
    result = pim.match(requests)
    assert is_maximal_matching(requests, result.matching)
    assert result.iterations_to_maximal is not None


@settings(max_examples=50, deadline=None)
@given(requests=requests_strategy(max_ports=6))
def test_maximal_at_least_half_of_maximum(requests):
    """Any maximal matching is >= half the maximum matching size."""
    n = len(requests)
    pim = ParallelIterativeMatcher(n, iterations=4 * n, rng=random.Random(2))
    result = pim.match(requests)
    assert 2 * len(result.matching) >= maximum_size(requests)
