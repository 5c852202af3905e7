"""Tests for measurement probes."""

import pytest

from repro.sim.monitor import Gauge, ProbeSet, Tally


class TestTally:
    def test_mean_and_extremes(self):
        tally = Tally()
        tally.extend([1.0, 2.0, 3.0, 4.0])
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.count == 4
        assert tally.total == pytest.approx(10.0)

    def test_variance_and_stdev(self):
        tally = Tally()
        tally.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert tally.variance == pytest.approx(32.0 / 7.0)
        assert tally.stdev == pytest.approx((32.0 / 7.0) ** 0.5)

    def test_variance_of_single_sample_is_zero(self):
        tally = Tally()
        tally.record(5.0)
        assert tally.variance == 0.0

    def test_percentiles_nearest_rank(self):
        tally = Tally()
        tally.extend(float(i) for i in range(1, 101))
        assert tally.percentile(50) == 50.0
        assert tally.percentile(99) == 99.0
        assert tally.percentile(100) == 100.0
        assert tally.percentile(0) == 1.0

    def test_percentile_after_more_samples_recomputes(self):
        tally = Tally()
        tally.extend([1.0, 2.0, 3.0])
        assert tally.percentile(100) == 3.0
        tally.record(10.0)
        assert tally.percentile(100) == 10.0

    def test_percentile_cache_invalidated_after_extend(self):
        tally = Tally()
        tally.extend([3.0, 1.0, 2.0])
        assert tally.percentile(50) == 2.0
        tally.extend([10.0, 11.0, 12.0, 13.0])
        assert tally.percentile(100) == 13.0
        assert tally.percentile(50) == 10.0

    def test_record_stays_bare_append(self):
        tally = Tally()
        tally.record(1.0)
        # hot paths are allowed to append directly
        tally._samples.append(2.0)
        assert tally.count == 2
        assert tally.percentile(100) == 2.0

    def test_empty_tally_raises(self):
        tally = Tally("empty")
        with pytest.raises(ValueError):
            tally.mean
        with pytest.raises(ValueError):
            tally.percentile(50)
        with pytest.raises(ValueError):
            tally.minimum

    def test_bad_percentile_rejected(self):
        tally = Tally()
        tally.record(1.0)
        with pytest.raises(ValueError):
            tally.percentile(101)

    def test_snapshot_empty_and_populated(self):
        tally = Tally()
        assert tally.snapshot() == {"count": 0}
        tally.extend([1.0, 2.0, 3.0, 4.0])
        snap = tally.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["p50"] == 2.0


class TestGauge:
    def test_gauge_reads_live_state(self):
        state = {"v": 1}
        gauge = Gauge("g", lambda: state["v"])
        assert gauge.value == 1
        state["v"] = 5
        assert gauge.value == 5


class TestProbeSet:
    def test_probes_are_cached_by_name(self):
        probes = ProbeSet()
        assert probes.tally("b") is probes.tally("b")
        assert probes.tally("b").name == "b"

    def test_snapshot_holds_tallies_and_gauges(self):
        probes = ProbeSet()
        probes.tally("lat").record(1.0)
        probes.gauge("live", lambda: 11)
        snap = probes.snapshot()
        assert set(snap) == {"tallies", "gauges"}
        assert snap["tallies"]["lat"]["count"] == 1
        assert snap["gauges"]["live"] == 11
