"""Tests for process-wide captures and their network integration."""

import repro.obs as obs
from repro.obs import Capture, MetricsRegistry, Tracer

from tests.conftest import line_with_hosts


class TestCaptureStack:
    def test_begin_end_round_trip(self):
        assert obs.active_capture() is None
        cap = obs.begin_capture()
        try:
            assert obs.active_capture() is cap
        finally:
            assert obs.end_capture() is cap
        assert obs.active_capture() is None

    def test_nested_capture_shadows_outer(self):
        outer = obs.begin_capture()
        try:
            inner = obs.begin_capture()
            assert obs.active_capture() is inner
            assert obs.end_capture() is inner
            assert obs.active_capture() is outer
        finally:
            obs.end_capture()

    def test_end_without_begin_returns_none(self):
        assert obs.end_capture() is None

    def test_context_manager(self):
        with obs.capture() as cap:
            assert obs.active_capture() is cap
        assert obs.active_capture() is None

    def test_custom_tracer_is_used(self):
        tracer = Tracer(categories=["reconfig"])
        with obs.capture(tracer) as cap:
            assert cap.tracer is tracer


class TestCaptureSnapshot:
    def test_adopt_deduplicates(self):
        cap = Capture()
        registry = MetricsRegistry()
        cap.adopt(registry)
        cap.adopt(registry)
        assert cap.registries == [registry]

    def test_single_registry_snapshot_unprefixed(self):
        cap = Capture()
        registry = MetricsRegistry()
        registry.gauge("switch.0.cells", lambda: 3)
        cap.adopt(registry)
        assert cap.snapshot()["switch.0"]["gauges"]["cells"] == 3

    def test_multiple_registries_get_net_prefix(self):
        cap = Capture()
        for value in (1, 2):
            registry = MetricsRegistry()
            registry.gauge("switch.0.cells", lambda value=value: value)
            cap.adopt(registry)
        snap = cap.snapshot()
        assert snap["net0.switch.0"]["gauges"]["cells"] == 1
        assert snap["net1.switch.0"]["gauges"]["cells"] == 2


class TestNetworkIntegration:
    def test_network_built_in_capture_attaches_tracer_and_registry(self):
        with obs.capture() as cap:
            net = line_with_hosts(2)
        assert net.sim.tracer is cap.tracer
        assert net.registry in cap.registries
        # registry nodes were populated at construction time
        assert "switch.s0" in net.registry
        assert "host.h0" in net.registry

    def test_network_outside_capture_has_no_tracer(self):
        net = line_with_hosts(2)
        assert net.sim.tracer is None
        # the registry still exists for direct use
        assert net.metrics_snapshot()
