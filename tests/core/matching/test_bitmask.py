"""Tests for the bitmask scheduling kernel against its oracle.

The load-bearing claims, in order:

1. :class:`BitmaskPim` is *bit-identical* to the reference
   :class:`ParallelIterativeMatcher` (:mod:`repro.conform.reference`)
   for a shared seed -- same matching, same iteration counts, same RNG
   state afterwards -- across N in {4, 16, 32, 64}.  Since the outputs
   coincide on every input, the bitmask matchings are legal and maximal
   exactly when the reference's are.
2. :class:`BitmaskIslip` is exactly equivalent to the reference
   :class:`IslipMatcher` (no randomness involved), including pointer
   state evolution.
3. There is one draw protocol and no option selecting another.
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.reference import IslipMatcher, ParallelIterativeMatcher
from repro.core.matching.analysis import (
    is_legal_matching,
    is_maximal_matching,
)
from repro.core.matching.bitmask import (
    BitmaskIslip,
    BitmaskPim,
    bits_of,
    iter_bits,
    mask_of,
)

EQUIVALENCE_PORTS = [4, 16, 32, 64]


def random_requests(n, density, rng):
    return [
        {o for o in range(n) if rng.random() < density} for _ in range(n)
    ]


def as_masks(requests):
    return [mask_of(wanted) for wanted in requests]


class TestBitHelpers:
    def test_mask_of_bits_of_roundtrip(self):
        for ports in ([], [0], [3, 1, 7], [0, 15], [16, 31, 63]):
            mask = mask_of(ports)
            assert bits_of(mask) == tuple(sorted(ports))
            assert list(iter_bits(mask)) == sorted(ports)

    def test_bits_of_wide_masks(self):
        rng = random.Random(0)
        for _ in range(200):
            ports = sorted(rng.sample(range(64), rng.randrange(0, 20)))
            assert bits_of(mask_of(ports)) == tuple(ports)

    def test_bits_ascending(self):
        # The ascending order is the determinism contract shared with the
        # reference matchers' sorted() calls.
        assert bits_of(0b1011_0001) == (0, 4, 5, 7)


class TestStrictPimEquivalence:
    """Bit-identical to the reference for a shared seed."""

    def test_constructor_has_no_draw_protocol_option(self):
        assert list(inspect.signature(BitmaskPim.__init__).parameters) == [
            "self", "n_ports", "iterations", "rng",
        ]

    @pytest.mark.parametrize("n", EQUIVALENCE_PORTS)
    def test_identical_across_densities(self, n):
        gen = random.Random(100 + n)
        reference = ParallelIterativeMatcher(n, 3, rng=random.Random(7))
        bitmask = BitmaskPim(n, 3, rng=random.Random(7))
        for trial in range(120):
            density = (trial % 10 + 1) / 10
            requests = random_requests(n, density, gen)
            expected = reference.match(requests)
            actual = bitmask.match(requests)
            assert actual.matching == expected.matching
            assert actual.iterations_run == expected.iterations_run
            assert (
                actual.iterations_to_maximal == expected.iterations_to_maximal
            )
            assert (
                actual.new_matches_per_iteration
                == expected.new_matches_per_iteration
            )
            # Identical outputs => legal/maximal exactly when the
            # reference's are; assert the analysis agrees on both.
            assert is_legal_matching(requests, actual.matching)
            assert is_maximal_matching(
                requests, actual.matching
            ) == is_maximal_matching(requests, expected.matching)

    @pytest.mark.parametrize("n", [4, 16])
    def test_identical_with_pre_matched(self, n):
        gen = random.Random(5)
        reference = ParallelIterativeMatcher(n, 3, rng=random.Random(3))
        bitmask = BitmaskPim(n, 3, rng=random.Random(3))
        for _ in range(100):
            requests = random_requests(n, 0.5, gen)
            pre = {0: 1, n - 1: 0}
            requests[0] = set()
            requests[n - 1] = set()
            for wanted in requests:
                wanted.discard(1)
                wanted.discard(0)
            assert (
                bitmask.match(requests, pre_matched=pre).matching
                == reference.match(requests, pre_matched=pre).matching
            )

    @pytest.mark.parametrize("n", [4, 16, 24])
    def test_identical_with_superset_columns_and_pre_matched(self, n):
        """How ``AN2Switch`` calls the kernel: rows masked down to the
        idle outputs, but the maintained (unmasked) transpose -- extra
        column bits for busy outputs and pre-matched inputs -- plus a
        pre-matching.  Same pairs in the same order as the reference, and
        the same RNG state afterwards."""
        gen = random.Random(21)
        reference = ParallelIterativeMatcher(n, 3, rng=random.Random(9))
        bitmask = BitmaskPim(n, 3, rng=random.Random(9))
        for _ in range(150):
            full = random_requests(n, 0.5, gen)  # what the cards hold
            pre = {}
            for in_port in gen.sample(range(n), gen.randrange(0, 3)):
                free = [o for o in range(n) if o not in pre.values()]
                pre[in_port] = gen.choice(free)
            busy = {o for o in range(n) if gen.random() < 0.3}
            blocked = busy | set(pre.values())
            requests = [
                set() if i in pre else wanted - blocked
                for i, wanted in enumerate(full)
            ]
            rows = [mask_of(wanted - blocked) for wanted in full]
            cols = [
                mask_of(i for i in range(n) if o in full[i]) for o in range(n)
            ]
            expected = reference.match(requests, pre_matched=pre)
            actual = bitmask.match_masks(rows, pre, cols)
            assert list(actual.matching.items()) == list(
                expected.matching.items()
            )
            assert actual.iterations_to_maximal == expected.iterations_to_maximal
            assert bitmask.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    def test_identical_across_iteration_counts(self, iterations):
        gen = random.Random(8)
        n = 16
        reference = ParallelIterativeMatcher(
            n, iterations, rng=random.Random(11)
        )
        bitmask = BitmaskPim(n, iterations, rng=random.Random(11))
        for _ in range(100):
            requests = random_requests(n, 0.6, gen)
            assert (
                bitmask.match(requests).matching
                == reference.match(requests).matching
            )

    def test_mask_and_set_inputs_agree(self):
        gen = random.Random(2)
        n = 16
        requests = random_requests(n, 0.5, gen)
        a = BitmaskPim(n, rng=random.Random(1)).match(requests)
        b = BitmaskPim(n, rng=random.Random(1)).match(as_masks(requests))
        assert a.matching == b.matching

    def test_explicit_union_agrees(self):
        gen = random.Random(3)
        n = 16
        requests = random_requests(n, 0.5, gen)
        masks = as_masks(requests)
        union = 0
        for mask in masks:
            union |= mask
        a = BitmaskPim(n, rng=random.Random(1)).match_masks(masks)
        b = BitmaskPim(n, rng=random.Random(1)).match_masks(
            masks, union=union
        )
        assert a.matching == b.matching


class TestIslipEquivalence:
    @pytest.mark.parametrize("n", EQUIVALENCE_PORTS)
    def test_identical_including_pointer_state(self, n):
        gen = random.Random(50 + n)
        reference = IslipMatcher(n, 3)
        bitmask = BitmaskIslip(n, 3)
        for _ in range(120):
            requests = random_requests(n, 0.5, gen)
            expected = reference.match(requests)
            actual = bitmask.match(requests)
            assert actual.matching == expected.matching
            assert bitmask.grant_pointers == reference.grant_pointers
            assert bitmask.accept_pointers == reference.accept_pointers

    def test_reset_clears_pointers(self):
        bitmask = BitmaskIslip(4)
        bitmask.match([{1}, {2}, {3}, {0}])
        bitmask.reset()
        assert bitmask.grant_pointers == [0, 0, 0, 0]
        assert bitmask.accept_pointers == [0, 0, 0, 0]


class TestValidation:
    def test_rejects_oversized_radix(self):
        with pytest.raises(ValueError):
            BitmaskPim(65)
        with pytest.raises(ValueError):
            BitmaskIslip(65)

    def test_rejects_bad_mask(self):
        pim = BitmaskPim(4)
        with pytest.raises(ValueError):
            pim.match([0b10000, 0, 0, 0])  # bit 4 out of range
        with pytest.raises(ValueError):
            pim.match([-1, 0, 0, 0])

    def test_rejects_bad_set(self):
        pim = BitmaskPim(4)
        with pytest.raises(ValueError):
            pim.match([{9}, set(), set(), set()])
        with pytest.raises(ValueError):
            pim.match([set()])

    def test_rejects_conflicting_pre_match(self):
        pim = BitmaskPim(4)
        with pytest.raises(ValueError):
            pim.match([set()] * 4, pre_matched={0: 1, 2: 1})

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BitmaskPim(0)
        with pytest.raises(ValueError):
            BitmaskPim(4, iterations=0)


def requests_strategy(max_ports=8):
    return st.integers(min_value=2, max_value=max_ports).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=100, deadline=None)
@given(requests=requests_strategy())
def test_islip_fast_mode_legal_and_maximal_with_reference(requests):
    """iSLIP bitmask vs reference on arbitrary hypothesis inputs."""
    n = len(requests)
    expected = IslipMatcher(n, 3).match(requests)
    actual = BitmaskIslip(n, 3).match(requests)
    assert actual.matching == expected.matching


class TestFastModeDeterminism:
    def test_strict_seed_bit_identical_across_repeats(self):
        n = 16

        def run():
            gen = random.Random(78)
            pim = BitmaskPim(n, rng=random.Random(14))
            return [
                tuple(sorted(pim.match(random_requests(n, 0.5, gen)).matching.items()))
                for _ in range(200)
            ]

        assert run() == run()


class TestFastModeDistribution:
    def test_uniform_grant_shares(self):
        """A single contested output grants ~uniformly among contenders."""
        n = 8
        requests = [{0} for _ in range(n)]
        pim = BitmaskPim(n, iterations=1, rng=random.Random(3))
        wins = [0] * n
        trials = 4000
        for _ in range(trials):
            result = pim.match(requests)
            [(winner, _)] = result.matching.items()
            wins[winner] += 1
        expected = trials / n
        for count in wins:
            assert abs(count - expected) < expected * 0.35
