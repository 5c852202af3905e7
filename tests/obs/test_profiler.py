"""Deterministic subsystem profiler: dispatch attribution by callback."""

from repro.obs import SubsystemProfiler, Tracer
from repro.obs.profiler import classify_callback
from repro.sim.kernel import Simulator

from tests.conftest import converged_line


def test_classify_by_qualname_and_module():
    from repro.core.reconfig.monitor import PortMonitor
    from repro.switch.switch import AN2Switch

    assert classify_callback(AN2Switch._slot_tick) == "matcher"
    assert classify_callback(AN2Switch._resync_tick) == "flowcontrol"
    assert classify_callback(PortMonitor._send_ping) == "monitor"

    def local_callback() -> None:
        pass

    assert classify_callback(local_callback) == "other"


def test_profiler_counts_simple_callbacks():
    profiler = SubsystemProfiler()
    fired = []

    def tick() -> None:
        fired.append(1)

    profiler.dispatch(tick, ())
    profiler.dispatch(tick, ())
    assert fired == [1, 1]
    assert profiler.events == {"other": 2}
    assert profiler.total_events == 2


def test_profiler_attributes_a_network_run():
    net = converged_line(3)
    profiler = SubsystemProfiler()
    net.sim.profiler = profiler
    net.run(20_000.0)
    net.sim.profiler = None
    assert profiler.total_events > 0
    # a converged idle network is keepalive pings + their link transits
    assert "monitor" in profiler.events
    assert "links" in profiler.events
    report = profiler.report()
    assert "monitor" in report
    assert "%" in report


def test_profiler_counts_match_kernel_event_count():
    net = converged_line(3)
    before = net.sim.events_executed
    profiler = SubsystemProfiler()
    net.sim.profiler = profiler
    net.run(10_000.0)
    net.sim.profiler = None
    assert profiler.total_events == net.sim.events_executed - before


def test_profiler_is_digest_neutral():
    """Profiling must not change what the simulation does."""
    from repro.conform.digest import digest_scenario

    plain = digest_scenario(seed=3, duration_us=30_000.0)

    import repro.conform.digest as digest_mod
    import repro.sim.kernel as kernel_mod  # noqa: F401

    # Re-run the same scenario with a profiler attached from the start.
    from repro.net.host import HostConfig
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.switch.switch import SwitchConfig
    from repro.traffic.workload import PoissonPacketWorkload

    topo = Topology.grid(2, 2)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s2", port_a=1, bps=622_000_000)
    topo.connect("h1", "s3", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=1, bps=622_000_000)
    net = Network(
        topo,
        seed=3,
        switch_config=SwitchConfig(
            frame_slots=32, control_delay_us=10.0, ping_interval_us=500.0,
            ack_timeout_us=200.0, miss_threshold=2,
            boot_reconfig_delay_us=1_500.0, resync_interval_us=5_000.0,
        ),
        host_config=HostConfig(
            ping_interval_us=500.0, ack_timeout_us=200.0,
            miss_threshold=2,
        ),
    )
    digest = digest_mod.RunDigest()
    net.sim.digest = digest
    net.sim.profiler = SubsystemProfiler(wall_time=True)
    net.start()
    net.run_until(net.converged, timeout_us=30_000.0)
    circuit = net.setup_circuit("h0", "h1")
    workload = PoissonPacketWorkload(
        net.sim, net.host("h0"), circuit.vc, circuit.destination,
        mean_interval_us=400.0, packet_bytes=480,
        rng=net.streams.stream("conform.digest.workload"),
        duration_us=15_000.0,
    )
    workload.start()
    net.run(30_000.0)
    net.sim.digest = None
    digest.absorb("network-state", digest_mod.fingerprint_network(net))
    assert digest.hexdigest() == plain
    profiler = net.sim.profiler
    assert profiler.total_events > 0
    assert sum(profiler.wall_seconds.values()) > 0.0


def test_profiler_wall_time_mode():
    sim = Simulator()
    profiler = SubsystemProfiler(wall_time=True)
    sim.profiler = profiler
    for k in range(50):
        sim.schedule_at(float(k), lambda: None)
    sim.run()
    assert profiler.total_events == 50
    assert profiler.wall_seconds.get("other", 0.0) >= 0.0
    profiler.clear()
    assert profiler.total_events == 0


def test_profiler_composes_with_tracer():
    sim = Simulator()
    tracer = Tracer()
    profiler = SubsystemProfiler()
    sim.tracer = tracer
    sim.profiler = profiler
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert profiler.total_events == 1
    assert any(r.category == "kernel" for r in tracer.records)
    # detaching both restores the uninstrumented class methods
    sim.tracer = None
    sim.profiler = None
    assert "step" not in sim.__dict__
    assert "run" not in sim.__dict__


def test_classify_fastpath_slot_driver():
    """The fabric slot driver's wave ticks get their own subsystem: a
    coalesced wave is fabric-advance work, not 'other' noise."""
    from repro.fastpath.driver import FabricSlotDriver

    assert classify_callback(FabricSlotDriver._fire) == "fastpath"


def test_profiler_attributes_driver_waves_on_a_network():
    from repro.traffic.workload import PoissonPacketWorkload

    from tests.conftest import line_with_hosts

    net = line_with_hosts(3)  # every default Network ticks on the wave
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    workload = PoissonPacketWorkload(
        net.sim,
        net.host("h0"),
        circuit.vc,
        circuit.destination,
        mean_interval_us=200.0,
        packet_bytes=480,
        rng=net.streams.stream("test.profiler.workload"),
        duration_us=8_000.0,
    )
    profiler = SubsystemProfiler()
    waves_before = net.slot_driver.waves
    net.sim.profiler = profiler
    workload.start()
    net.run(16_000.0)
    net.sim.profiler = None
    assert profiler.events.get("fastpath", 0) > 0
    assert (
        profiler.events["fastpath"]
        == net.slot_driver.waves - waves_before
    )
