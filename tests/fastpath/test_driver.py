"""FabricSlotDriver: wave coalescing, parking, and the one schedule.

The driver's contract has four legs:

1. **Adoption is conservative** -- only drift-free switches with the
   driver's exact slot time are adopted; everything else keeps its
   private timer.
2. **Waves coalesce** -- S switches requesting ticks in one slot window
   cost one kernel event, dispatched in node-id order.
3. **Parked switches are armed but not walked** -- until their wave or
   a kick; the slots they sit out are counted (``parked``, and onto
   their ``_slot_index``), and the next wave is scheduled at the point
   of the walk where walking every armed switch would have scheduled
   it, so kernel events keep their ``(time, seq)``.
4. **One schedule per Network** -- every ``Network`` builds a driver:
   drift-free switches tick on its wave, drifting ones (from
   construction or after a mid-run clock fault) on their private timer.
   Against the detached private-timer reference the wave delivers
   byte-identical traffic outcomes (forwarding counts, queues, credits,
   epochs, link/host state) in strictly fewer kernel events; only the
   per-switch tick phase (``slot_index``) may differ, because the wave
   models one fabric-wide slot clock.
"""

from types import SimpleNamespace

import pytest

from repro._types import switch_id
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
        _slot_index=0,
    )

    def tick():
        switch._slot_index += 1
        order.append(node_id)
        switch.after_tick()

    switch.after_tick = lambda: None
    switch._slot_tick = tick
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
        for switch in switches:
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


class Fabric:
    """A driver over fake switches whose re-arming a test scripts:
    ``plan[name]`` is called at the end of each tick of ``name`` (set
    with :meth:`then`); by default a ticked switch goes idle."""

    def __init__(self, *nums, slot_time=1.0):
        self.sim = Simulator()
        self.driver = FabricSlotDriver(self.sim, slot_time_us=slot_time)
        self.walked = []  # (wave, name) of every tick
        self.switches = {}
        for num in nums:
            name = f"s{num}"
            switch = fake_switch(switch_id(num), [])
            switch.after_tick = lambda name=name: self._ticked(name)
            self.switches[name] = switch
            assert self.driver.adopt(switch)
        self.plan = {}

    def _ticked(self, name):
        self.walked.append((self.driver.waves, name))
        step = self.plan.pop(name, None)
        if step is not None:
            step()

    def then(self, name, step):
        self.plan[name] = step

    def park(self, name, waves):
        self.driver.park(self.switches[name], waves)

    def request(self, name):
        self.driver.request_tick(self.switches[name])

    def arm(self, name, useful, each_tick=lambda: None):
        """Arm ``name`` through wave ``useful[-1]`` with something to do
        (``each_tick``) only at the waves listed: at the end of a tick it
        parks until the next of them, as a switch that knows its next
        useful slot does."""
        driver = self.driver

        def step():
            each_tick()
            ahead = [wave for wave in useful if wave > driver.waves]
            if ahead:
                self.park(name, ahead[0] - driver.waves)
                self.then(name, step)

        self.request(name)
        self.then(name, step)

    def walk_densely(self):
        """The reference: every armed switch due at every wave."""
        driver = self.driver
        driver.park = lambda switch, waves: driver.request_tick(switch)

    def run_waves(self, n):
        self.sim.run(until=self.sim.now + n * self.driver.slot_time_us)

    def walked_at(self, name):
        return [wave for wave, who in self.walked if who == name]


class TestParking:
    def test_rank_order_is_node_id_order(self):
        """Adopted in scrambled order, walked by NodeId -- numerically,
        so s10 comes after s9 -- without hashing or sorting at the wave."""
        fabric = Fabric(10, 2, 33, 9, 0)
        assert [
            str(s.node_id) for s in fabric.driver._switches
        ] == ["s0", "s2", "s9", "s10", "s33"]
        for name in ("s33", "s9", "s0", "s10", "s2"):
            fabric.request(name)
        fabric.run_waves(1)
        assert [who for _, who in fabric.walked] == [
            "s0", "s2", "s9", "s10", "s33",
        ]

    def test_parked_switch_is_walked_at_its_wave_only(self):
        fabric = Fabric(0, 1)
        fabric.request("s0")
        fabric.request("s1")
        # s0 parks for three waves at its first tick; s1 stays due.
        fabric.then("s0", lambda: fabric.park("s0", 3))
        for _ in range(4):
            fabric.run_waves(1)
            if fabric.driver.waves < 4:
                fabric.request("s1")
        assert fabric.walked_at("s0") == [1, 4]
        assert fabric.walked_at("s1") == [1, 2, 3, 4]
        # The two waves s0 sat out are on its slot counter and in
        # ``parked``; ``ticks`` counts the calls made.
        assert fabric.switches["s0"]._slot_index == 4
        assert fabric.driver.ticks == 6
        assert fabric.driver.parked == 2

    def test_parked_switch_alone_keeps_the_wave_chain_alive(self):
        fabric = Fabric(0)
        fabric.request("s0")
        fabric.then("s0", lambda: fabric.park("s0", 5))
        fabric.run_waves(10)
        assert fabric.walked_at("s0") == [1, 6]
        assert fabric.driver.waves == 6  # and then nobody is armed
        assert fabric.sim.pending() == 0

    def test_kick_between_waves_is_served_at_the_next_wave(self):
        fabric = Fabric(0)
        fabric.request("s0")
        fabric.then("s0", lambda: fabric.park("s0", None))  # until kicked
        fabric.run_waves(3.5)
        assert fabric.walked_at("s0") == [1]
        assert fabric.driver.is_parked(fabric.switches["s0"])
        assert fabric.driver.sat_out(fabric.switches["s0"]) == 2
        fabric.request("s0")  # the kick, between waves 3 and 4
        assert not fabric.driver.is_parked(fabric.switches["s0"])
        assert fabric.switches["s0"]._slot_index == 3
        fabric.run_waves(1)
        assert fabric.walked_at("s0") == [1, 4]
        assert fabric.switches["s0"]._slot_index == 4

    def test_planned_wake_is_void_after_an_early_unpark(self):
        """Parked until wave 6, kicked at wave 2, re-parked until wave 9:
        wave 6 must not walk it."""
        fabric = Fabric(0)
        fabric.request("s0")
        fabric.then("s0", lambda: fabric.park("s0", 5))
        fabric.run_waves(2.5)
        fabric.then("s0", lambda: fabric.park("s0", 6))
        fabric.request("s0")
        fabric.run_waves(10)
        assert fabric.walked_at("s0") == [1, 3, 9]
        assert fabric.switches["s0"]._slot_index == 9
        assert fabric.driver._wake == {}

    def test_ticks_plus_parked_is_the_dense_walk(self):
        """Conservation: the same script on a driver whose ``park`` is
        overridden to walk every armed switch every wave makes
        ``ticks + parked`` calls -- and fires the same waves."""

        def script(dense):
            fabric = Fabric(0, 1, 2)
            if dense:
                fabric.walk_densely()
            kicked = []

            def until_kicked():
                if not kicked:
                    fabric.park("s2", None)
                    fabric.then("s2", until_kicked)

            fabric.arm("s0", [1, 2, 5, 6, 11])
            fabric.arm("s1", [1, 4, 14])
            fabric.request("s2")
            fabric.then("s2", until_kicked)
            fabric.run_waves(7.5)
            kicked.append(True)
            fabric.request("s2")
            fabric.run_waves(30)
            return fabric

        sparse, dense = script(False), script(True)
        assert sparse.walked_at("s0") == [1, 2, 5, 6, 11]
        assert sparse.walked_at("s1") == [1, 4, 14]
        assert sparse.walked_at("s2") == [1, 8]
        assert dense.walked_at("s1") == list(range(1, 15))
        assert dense.driver.parked == 0
        assert sparse.driver.waves == dense.driver.waves == 14
        assert sparse.driver.ticks == 10 and sparse.driver.parked == 23
        assert dense.driver.ticks == 33
        for name in sparse.switches:
            assert (
                sparse.switches[name]._slot_index
                == dense.switches[name]._slot_index
            )

    @pytest.mark.parametrize(
        "parked_rank, expected",
        [
            (0, "W W12 W12 W12 W"),
            (1, "W 0W2 0W2 0W2 W"),
            (2, "W 0W1 0W1 01W W"),
        ],
    )
    def test_next_wave_is_scheduled_where_the_dense_walk_would(
        self, parked_rank, expected
    ):
        """Two switches tick at waves 1-3 and each tick schedules an
        event; the third sits parked at ``parked_rank`` until wave 5.
        Events of lower-ranked ticks must keep a seq below the next
        wave's, higher-ranked ones above -- exactly as when the parked
        switch is walked and re-arms in its turn.  (``expected``: waves
        ``W`` and the events of s0/s1/s2 in dispatch order, grouped by
        time; at wave 3 the busy pair go idle and the parked switch
        alone keeps the chain alive.)"""

        def script(dense):
            fabric = Fabric(0, 1, 2)
            if dense:
                fabric.walk_densely()
            log = []  # waves and tick-scheduled events, in dispatch order
            fire = fabric.driver._fire

            def recording_fire():
                log.append("W")
                fire()

            fabric.driver._fire = recording_fire
            for rank, name in enumerate(("s0", "s1", "s2")):
                if rank == parked_rank:
                    fabric.arm(name, [1, 5])
                else:
                    # One slot out: the event lands with the next wave,
                    # so only seq orders the two.
                    fabric.arm(
                        name, [1, 2, 3],
                        lambda name=name: fabric.sim.schedule(
                            1.0, log.append, name[1:]
                        ),
                    )
            fabric.run_waves(8)
            return log

        sparse = script(dense=False)
        assert sparse == script(dense=True)
        assert "".join(sparse) == expected.replace(" ", "")

    def test_park_outside_a_walk_is_a_request(self):
        """Horizons count from the wave being walked; a switch parking
        from anywhere else (back from a private timer) is due next wave."""
        fabric = Fabric(0)
        fabric.park("s0", 5)
        assert not fabric.driver.is_parked(fabric.switches["s0"])
        fabric.run_waves(1)
        assert fabric.walked_at("s0") == [1]

    def test_adopting_into_an_armed_wave_is_refused(self):
        fabric = Fabric(0)
        fabric.request("s0")
        with pytest.raises(RuntimeError):
            fabric.driver.adopt(fake_switch(switch_id(5), []))


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
            "parked": 0,
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
        assert gauges["parked"] == driver.parked

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
            "parked": 0,
        }

    def test_mid_run_drift_leaves_and_rejoins_the_wave(self):
        """A clock-drift fault takes exactly that switch off the wave at
        its next arming; stepping back to 0 ppm returns it."""
        net = line_with_hosts(3)
        driver = net.slot_driver
        armings = []  # (time, node_id) of every arming on the wave
        for name in ("request_tick", "park"):
            def recording(switch, *args, arm=getattr(driver, name)):
                armings.append((net.now, str(switch.node_id)))
                return arm(switch, *args)

            setattr(driver, name, recording)
        in_wave = []
        fire = driver._fire

        def recording_fire():
            in_wave.append(True)
            fire()
            in_wave.pop()

        driver._fire = recording_fire
        wave_ticks = {}  # node_id -> ticks the wave made / made off it
        private_ticks = {}
        for node_id, switch in net.switches.items():
            def recording_tick(node=str(node_id), tick=switch._slot_tick):
                made = wave_ticks if in_wave else private_ticks
                made.setdefault(node, []).append(net.now)
                tick()

            switch._slot_tick = recording_tick
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

        def armed(node, start, end):
            return sum(
                1 for at, who in armings if who == node and start < at <= end
            )

        assert armed("s1", 0.0, drifted_from) > 0
        assert armed("s1", drifted_from, drifted_until) == 0
        assert armed("s1", drifted_until, net.now) > 0
        for neighbor in ("s0", "s2"):
            assert armed(neighbor, drifted_from, drifted_until) > 0
        # s1 kept forwarding through the window on its private timer,
        # and only there and then; s0 and s2 never ticked off the wave.
        slot = net.switch_config.slot_time_us
        assert private_ticks.keys() == {"s1"}
        assert all(
            drifted_from < at <= drifted_until + 2 * slot
            for at in private_ticks["s1"]
        )
        assert not any(
            drifted_from + slot < at <= drifted_until
            for at in wave_ticks["s1"]
        )
        # Every slot a switch counted is a tick the wave made, a wave it
        # sat out parked, or a tick of its private timer -- per switch
        # where the switch never parked, in total where they did.
        assert driver.ticks == sum(len(made) for made in wave_ticks.values())
        assert sum(s.slot_index for s in net.switches.values()) == (
            driver.ticks + driver.parked + len(private_ticks["s1"])
        )
        assert net.switch("s1").slot_index > len(wave_ticks["s1"])

    def test_drift_step_on_a_parked_switch_unparks_it(self):
        """A switch holding a reservation and nothing to send is parked
        until kicked.  A clock-drift step must take it off the wave at
        the next wave -- one last tick there, then its private timer --
        as it would a switch walked every slot; stepping back to 0 ppm
        re-parks it."""
        net = line_with_hosts(3)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        driver, s1 = net.slot_driver, net.switch("s1")
        assert driver.is_parked(s1)
        index = s1.slot_index  # counts the waves s1 sits out
        net.run(100 * driver.slot_time_us)
        assert s1.slot_index - index in (100, 101)
        assert s1._slot_index < s1.slot_index
        ticks = driver.ticks
        s1.set_clock_drift(150.0)
        assert not driver.is_parked(s1)
        net.run(50 * driver.slot_time_us)
        assert driver.ticks == ticks + 1  # the last one on the wave
        assert not driver.is_parked(s1) and s1._tick_scheduled
        assert driver.is_parked(net.switch("s0"))
        s1.set_clock_drift(0.0)
        net.run(5 * driver.slot_time_us)
        assert driver.is_parked(s1)
        assert driver.ticks == ticks + 2  # back through one tick on it

    def test_traffic_neutral_with_fewer_events(self):
        """The oracle's statement end to end: the default Network and its
        detached private-timer reference have identical scrubbed
        fingerprints, and the wave executes strictly fewer events."""
        divergence, record = compare_slot_driver(seed=3)
        assert divergence is None, str(divergence)
        assert record["events_on"] < record["events_off"]
