"""FabricSlotDriver: wave coalescing semantics and the one schedule.

The driver's contract has three legs:

1. **Adoption is conservative** -- only drift-free switches with the
   driver's exact slot time are adopted; everything else keeps its
   private timer.
2. **Waves coalesce** -- S switches requesting ticks in one slot window
   cost one kernel event, dispatched in node-id order.
3. **One schedule per Network** -- every ``Network`` builds a driver:
   drift-free switches tick on its wave, drifting ones (from
   construction or after a mid-run clock fault) on their private timer.
   Against the detached private-timer reference the wave delivers
   byte-identical traffic outcomes (forwarding counts, queues, credits,
   epochs, link/host state) in strictly fewer kernel events; only the
   per-switch tick phase (``slot_index``) may differ, because the wave
   models one fabric-wide slot clock.
"""

from types import SimpleNamespace

from repro.conform.oracle import compare_slot_driver
from repro.faults import ClockDriftStep, FaultPlan, ScenarioRunner, TrafficLoad
from repro.fastpath.driver import FabricSlotDriver
from repro.sim.kernel import Simulator

from tests.conftest import line_with_hosts


def fake_switch(node_id, order, drift=0.0, slot_time=1.0):
    switch = SimpleNamespace(
        node_id=node_id,
        clock=SimpleNamespace(drift_ppm=drift),
        config=SimpleNamespace(slot_time_us=slot_time),
    )
    switch._slot_tick = lambda: order.append(node_id)
    return switch


class TestWaves:
    def test_adopt_refuses_drift_and_slot_mismatch(self):
        driver = FabricSlotDriver(Simulator(), slot_time_us=1.0)
        order = []
        assert not driver.adopt(fake_switch("s0", order, drift=50.0))
        assert not driver.adopt(fake_switch("s1", order, slot_time=2.0))
        assert driver.adopt(fake_switch("s2", order))
        assert driver.adopted == 1
        assert driver.refused_drift == 1

    def test_one_wave_many_ticks_sorted(self):
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        switches = [fake_switch(f"s{i}", order) for i in (3, 1, 2, 0)]
        for switch in switches:
            assert driver.adopt(switch)
            driver.request_tick(switch)
        # re-requesting within the same window is idempotent
        driver.request_tick(switches[0])
        sim.run(until=2.0)
        assert driver.waves == 1
        assert driver.ticks == 4
        assert order == ["s0", "s1", "s2", "s3"]

    def test_waves_rearm_per_window(self):
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        switch = fake_switch("s0", order)
        driver.adopt(switch)
        driver.request_tick(switch)
        sim.run(until=1.5)
        driver.request_tick(switch)
        sim.run(until=3.0)
        assert driver.waves == 2
        assert order == ["s0", "s0"]


LOAD = TrafficLoad(
    source="h0", destination="h1", packet_size=480,
    interval_us=1_000.0, count=60,
)


def run(net, plan=FaultPlan()):
    """Boot, open the circuit, offer LOAD under ``plan``, check invariants."""
    result = ScenarioRunner(net, plan, (LOAD,), settle_us=80_000.0).run()
    assert result.passed, result.report()
    assert result.delivered == LOAD.count
    return result


class TestNetwork:
    def test_driver_adopts_drift_free_fabric(self):
        """No option: every drift-free switch of a default Network is on
        the wave, and the snapshot says so."""
        net = line_with_hosts(3)
        assert all(
            switch._slot_driver is net.slot_driver
            for switch in net.switches.values()
        )
        gauges = net.metrics_snapshot()["fabric.slot_driver"]["gauges"]
        assert gauges == {
            "adopted": 3, "refused_drift": 0, "waves": 0, "ticks": 0,
        }

    def test_driver_coalesces_events_on_a_live_network(self):
        """Slot waves only fire when cells actually queue -- drive a
        circuit's worth of traffic and watch waves coalesce ticks."""
        net = line_with_hosts(3)
        run(net)
        driver = net.slot_driver
        assert driver.waves > 0
        assert driver.ticks > driver.waves  # several switches per wave
        gauges = net.metrics_snapshot()["fabric.slot_driver"]["gauges"]
        assert gauges["waves"] == driver.waves
        assert gauges["ticks"] == driver.ticks

    def test_drifted_switches_keep_private_timers(self):
        """Clock drift is the regime the wave must not paper over."""
        net = line_with_hosts(3, drift_ppm=40.0)
        assert all(
            switch._slot_driver is None for switch in net.switches.values()
        )
        run(net)  # still runs, on private timers
        gauges = net.metrics_snapshot()["fabric.slot_driver"]["gauges"]
        assert gauges == {
            "adopted": 0, "refused_drift": 3, "waves": 0, "ticks": 0,
        }

    def test_mid_run_drift_leaves_and_rejoins_the_wave(self):
        """A clock-drift fault takes exactly that switch off the wave at
        its next arming; stepping back to 0 ppm returns it."""
        net = line_with_hosts(3)
        requests = []  # (time, node_id) of every wave arming
        request_tick = net.slot_driver.request_tick

        def recording_request(switch):
            requests.append((net.now, str(switch.node_id)))
            request_tick(switch)

        net.slot_driver.request_tick = recording_request
        clock = net.switch("s1").clock
        steps = []  # times of the two drift steps
        set_drift = clock.set_drift

        def recording_set_drift(drift_ppm):
            steps.append(net.now)
            set_drift(drift_ppm)

        clock.set_drift = recording_set_drift
        plan = FaultPlan.of(
            ClockDriftStep(at_us=20_000.0, switch="s1", drift_ppm=150.0),
            ClockDriftStep(at_us=40_000.0, switch="s1", drift_ppm=0.0),
        )
        run(net, plan)  # faults.invariants clean
        drifted_from, drifted_until = steps

        def armings(node, start, end):
            return sum(
                1 for at, who in requests if who == node and start < at <= end
            )

        assert armings("s1", 0.0, drifted_from) > 0
        assert armings("s1", drifted_from, drifted_until) == 0
        assert armings("s1", drifted_until, net.now) > 0
        for neighbor in ("s0", "s2"):
            assert armings(neighbor, drifted_from, drifted_until) > 0
        # s1 kept forwarding through the window on its private timer:
        # it ticked more often than it armed the wave.
        assert net.switch("s1")._slot_index > armings("s1", 0.0, net.now)
        assert net.switch("s0")._slot_index == armings("s0", 0.0, net.now)

    def test_traffic_neutral_with_fewer_events(self):
        """The oracle's statement end to end: the default Network and its
        detached private-timer reference have identical scrubbed
        fingerprints, and the wave executes strictly fewer events."""
        divergence, record = compare_slot_driver(seed=3)
        assert divergence is None, str(divergence)
        assert record["events_on"] < record["events_off"]
