"""Tests for the hierarchical metrics registry."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.monitor import ProbeSet


class TestNodes:
    def test_node_created_on_first_use_and_cached(self):
        registry = MetricsRegistry()
        node = registry.node("switch.3.fabric")
        assert isinstance(node, ProbeSet)
        assert registry.node("switch.3.fabric") is node
        assert list(registry.snapshot()) == ["switch.3.fabric"]

    def test_invalid_paths_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", ".", "a..b", "a."):
            with pytest.raises(ValueError):
                registry.node(bad)

    def test_probe_path_needs_node_and_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.tally("lonely")


class TestProbes:
    def test_probe_addressing_reaches_node_probe(self):
        registry = MetricsRegistry()
        tally = registry.tally("switch.0.latency")
        tally.record(7.0)
        assert registry.node("switch.0").tally("latency") is tally

    def test_tally_and_gauge_through_registry(self):
        registry = MetricsRegistry()
        tally = registry.tally("host.h0.packet_latency")
        tally.extend([1.0, 2.0, 3.0])
        registry.node("host.h0").gauge("queued", lambda: 42)
        snap = registry.snapshot()["host.h0"]
        assert snap["tallies"]["packet_latency"]["count"] == 3
        assert snap["gauges"]["queued"] == 42


class TestSnapshot:
    def test_snapshot_sorted_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.node("z.last").gauge("c", lambda: 1)
        registry.node("a.first").gauge("c", lambda: 2)
        snap = registry.snapshot()
        assert list(snap) == ["a.first", "z.last"]
        loaded = json.loads(json.dumps(snap))
        assert loaded["a.first"]["gauges"]["c"] == 2
