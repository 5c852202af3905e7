"""Tests for slot-level arrival processes."""

import random

import pytest

from repro.traffic.arrivals import (
    BernoulliUniform,
    BurstyOnOff,
    Hotspot,
    Permutation,
    StarvationPattern,
)


def measured_load(process, slots=20_000):
    total = 0
    for slot in range(slots):
        total += len(process.arrivals(slot))
    return total / (slots * process.n_ports)


class TestBernoulliUniform:
    def test_load_accuracy(self):
        process = BernoulliUniform(8, 0.4, random.Random(1))
        assert measured_load(process) == pytest.approx(0.4, abs=0.02)

    def test_destinations_roughly_uniform(self):
        process = BernoulliUniform(4, 1.0, random.Random(2))
        counts = [0] * 4
        for slot in range(5000):
            for _, output in process.arrivals(slot):
                counts[output] += 1
        total = sum(counts)
        for count in counts:
            assert count / total == pytest.approx(0.25, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliUniform(4, 1.5)
        with pytest.raises(ValueError):
            BernoulliUniform(0, 0.5)


class TestHotspot:
    def test_hot_output_receives_fraction(self):
        process = Hotspot(
            8, 1.0, hot_output=3, hot_fraction=0.5, rng=random.Random(3)
        )
        hot, total = 0, 0
        for slot in range(5000):
            for _, output in process.arrivals(slot):
                total += 1
                hot += output == 3
        # 50% direct + 1/8 of the uniform remainder ~ 0.5625
        assert hot / total == pytest.approx(0.5625, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hotspot(4, 0.5, hot_output=9)
        with pytest.raises(ValueError):
            Hotspot(4, 0.5, hot_fraction=2.0)


class TestBurstyOnOff:
    def test_long_run_load(self):
        process = BurstyOnOff(8, 0.5, mean_burst=16.0, rng=random.Random(4))
        assert measured_load(process, slots=60_000) == pytest.approx(
            0.5, abs=0.05
        )

    def test_burst_keeps_destination(self):
        process = BurstyOnOff(8, 0.9, mean_burst=50.0, rng=random.Random(5))
        runs = []
        current = None
        length = 0
        for slot in range(20_000):
            outputs = dict(process.arrivals(slot))
            output = outputs.get(0)  # watch input 0 only
            if output is None:
                continue
            if output == current:
                length += 1
            else:
                if length:
                    runs.append(length)
                current, length = output, 1
        if length:
            runs.append(length)
        # With mean burst 50 over 8 destinations, same-destination runs
        # should be long on average.
        assert runs, "input 0 never turned on"
        assert sum(runs) / len(runs) > 10

    def test_full_load_always_on(self):
        process = BurstyOnOff(4, 1.0, mean_burst=8.0, rng=random.Random(6))
        for slot in range(100):
            assert len(process.arrivals(slot)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyOnOff(4, 0.0)
        with pytest.raises(ValueError):
            BurstyOnOff(4, 0.5, mean_burst=0.5)


class TestPermutation:
    def test_fixed_mapping(self):
        process = Permutation(4, 1.0, mapping=[1, 2, 3, 0])
        for slot in range(10):
            assert process.arrivals(slot) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_random_mapping_is_permutation(self):
        process = Permutation(8, 1.0, rng=random.Random(7))
        outputs = sorted(o for _, o in process.arrivals(0))
        assert outputs == list(range(8))

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            Permutation(4, 1.0, mapping=[0, 0, 1, 2])


class TestStarvationPattern:
    def test_exact_arrivals(self):
        process = StarvationPattern(16)
        assert process.arrivals(0) == [(1, 2), (1, 3), (4, 3)]
        # three cells per slot over 16 inputs
        assert measured_load(process, slots=10) == pytest.approx(3 / 16)

    def test_needs_five_ports(self):
        with pytest.raises(ValueError):
            StarvationPattern(4)
