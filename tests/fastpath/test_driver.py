"""FabricSlotDriver: one slot clock, one calendar, and the one schedule.

The driver's contract has four legs:

1. **Membership** -- a switch adopted by a wave keeps its rank there
   (its place in node-id order) while it rides a clock of its own
   (``spawn``) and when it comes back (``ride``); a spawned clock
   continues the slot numbers of the one the switch rode.
2. **The clock is time** -- slot ``n`` starts at ``time_of(n)``, and
   ``slot_at`` is exact at every boundary; a wave fires at its slot's
   start and nowhere else.
3. **One calendar** -- each member holds at most one booking and a new
   one replaces it; a wave fires once per slot some member booked,
   walks exactly the members booked for it in node-id order, and so
   never walks nobody.  A kick pulls a far booking earlier.
4. **One schedule for both clock regimes** -- every ``Network`` builds
   a driver: drift-free switches tick on its clock, drifting ones (from
   construction or after a mid-run clock fault) on a clock of their own
   at their local slot time.  A switch books the first slot in which it
   can move a cell; a best-effort cell or a credit kicks it only when
   it adds a wanted output, and a reservation with nothing queued books
   nothing.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import switch_id
from repro.conform.oracle import PARKING, reserved_case, run_twin
from repro.constants import CELL_BITS, FAST_CELL_TIME_US
from repro.faults.plan import ClockDriftStep, FaultPlan
from repro.faults.runner import ScenarioRunner, TrafficLoad
from repro.fastpath.driver import FabricSlotDriver
from repro.net.cell import Cell, CellKind, TrafficClass
from repro.net.packet import Packet
from repro.sim.kernel import Simulator

from tests.conftest import converged_line, line_with_hosts


def fake_switch(node_id, order):
    switch = SimpleNamespace(node_id=node_id, _booked=None, slots=[])

    def tick(slot):
        switch.slots.append(slot)
        order.append(node_id)
        switch.after_tick(slot)

    switch.after_tick = lambda slot: None
    switch._slot_tick = tick
    return switch


def book_next(switch):
    """What a kick books: the next slot of the switch's clock."""
    driver = switch._slot_driver
    driver.book(switch, driver.slot_at(driver.sim.now) + 1)


class TestWaves:
    def test_a_member_rides_its_own_wave_and_comes_back(self):
        """s2 leaves for a clock of its own (its oscillator drifts)
        before s0 is adopted: the re-dealt ranks skip it, it ticks at
        its own slot time, and riding back it takes its node-id place."""
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        s0, s2, s5 = (fake_switch(switch_id(n), order) for n in (0, 2, 5))
        driver.adopt(s5)
        driver.adopt(s2)
        own = driver.spawn(s2, 1.25)
        driver.adopt(s0)
        assert s2._slot_driver is own and own.slot_time_us == 1.25
        assert (s0._slot_rank, s2._slot_rank, s5._slot_rank) == (0, 0, 2)
        for switch in (s0, s2, s5):
            book_next(switch)
        sim.run(until=1.1)  # slot 1 of both clocks starts at 1.0
        assert [str(n) for n in order] == ["s0", "s5", "s2"]
        book_next(s2)
        sim.run(until=2.1)
        assert len(order) == 3  # its slot 2 starts at 2.25
        sim.run(until=2.3)
        assert s2.slots == [1, 2]
        driver.ride(s2)
        assert s2._slot_driver is driver and s2._slot_rank == 1
        for switch in (s5, s2):
            book_next(switch)
        sim.run(until=4.0)
        assert [str(n) for n in order[4:]] == ["s2", "s5"]
        assert s2.slots == [1, 2, 3]
        assert driver.adopted == 3 and driver.own_waves == [own]
        assert (driver.waves, driver.ticks, own.waves, own.ticks) == (
            2, 4, 2, 2,
        )
        assert driver.counts() == (4, 6)

    def test_one_wave_many_ticks_sorted(self):
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        switches = [fake_switch(f"s{i}", order) for i in (3, 1, 2, 0)]
        for switch in switches:
            driver.adopt(switch)
        for switch in switches:
            book_next(switch)
        # booking the same slot again is idempotent
        book_next(switches[0])
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
        book_next(switch)
        sim.run(until=1.5)
        book_next(switch)
        sim.run(until=3.0)
        assert driver.waves == 2
        assert switch.slots == [1, 2]


class Fabric:
    """A driver over fake switches whose next booking a test scripts:
    ``plan[name]`` is called at the end of each tick of ``name`` (set
    with :meth:`then`); by default a ticked switch books nothing."""

    def __init__(self, *nums, slot_time=1.0):
        self.sim = Simulator()
        self.driver = FabricSlotDriver(self.sim, slot_time_us=slot_time)
        self.walked = []  # (slot, name) of every tick
        self.switches = {}
        for num in nums:
            name = f"s{num}"
            switch = fake_switch(switch_id(num), [])
            switch.after_tick = lambda slot, name=name: self._ticked(
                slot, name
            )
            self.switches[name] = switch
            self.driver.adopt(switch)
        self.plan = {}

    def _ticked(self, slot, name):
        self.walked.append((slot, name))
        step = self.plan.pop(name, None)
        if step is not None:
            step()

    def then(self, name, step):
        self.plan[name] = step

    def book(self, name, slot):
        self.driver.book(self.switches[name], slot)

    def kick(self, name):
        """``AN2Switch._kick``: the next slot, unless booked earlier."""
        switch = self.switches[name]
        slot = self.driver.slot_at(self.sim.now) + 1
        if switch._booked is None or slot < switch._booked:
            self.driver.book(switch, slot)

    def run_slots(self, n):
        self.sim.run(until=self.sim.now + n * self.driver.slot_time_us)

    def walked_at(self, name):
        return [slot for slot, who in self.walked if who == name]


class TestParking:
    """A switch booked ahead sits out the slots before its booking:
    no wave fires for it there."""

    def test_rank_order_is_node_id_order(self):
        """Adopted in scrambled order, walked by NodeId -- numerically,
        so s10 comes after s9 -- without hashing or sorting at the wave."""
        fabric = Fabric(10, 2, 33, 9, 0)
        assert [
            str(s.node_id) for s in fabric.driver._switches
        ] == ["s0", "s2", "s9", "s10", "s33"]
        for name in ("s33", "s9", "s0", "s10", "s2"):
            fabric.kick(name)
        fabric.run_slots(1)
        assert [who for _, who in fabric.walked] == [
            "s0", "s2", "s9", "s10", "s33",
        ]

    def test_parked_switch_is_walked_at_its_wave_only(self):
        fabric = Fabric(0, 1)
        fabric.kick("s0")
        fabric.kick("s1")
        # s0 books slot 4 at its first tick; s1 is kicked every slot.
        fabric.then("s0", lambda: fabric.book("s0", 4))
        for _ in range(4):
            fabric.run_slots(1)
            fabric.kick("s1")
        assert fabric.walked_at("s0") == [1, 4]
        assert fabric.walked_at("s1") == [1, 2, 3, 4]
        assert (fabric.driver.waves, fabric.driver.ticks) == (4, 6)

    def test_a_far_booking_alone_fires_one_wave(self):
        """A switch booked six slots out is the only member booked: the
        slots between cost no event, and once walked, nothing is left."""
        fabric = Fabric(0)
        fabric.kick("s0")
        fabric.then("s0", lambda: fabric.book("s0", 7))
        fabric.run_slots(1.5)
        assert fabric.sim.pending() == 1
        fabric.run_slots(10)
        assert fabric.walked_at("s0") == [1, 7]
        assert fabric.driver.waves == 2
        assert fabric.sim.pending() == 0

    def test_kick_between_waves_is_served_at_the_next_wave(self):
        """A kick pulls a far booking earlier, to the next slot."""
        fabric = Fabric(0)
        fabric.book("s0", 10)
        fabric.run_slots(3.5)
        assert fabric.walked == []
        fabric.kick("s0")
        assert fabric.switches["s0"]._booked == 4
        fabric.kick("s0")  # a second kick in the slot changes nothing
        fabric.run_slots(10)
        assert fabric.walked_at("s0") == [4]
        assert fabric.driver.waves == 1 and fabric.driver._calendar == {}

    def test_planned_wake_is_void_after_an_early_unpark(self):
        """Booked for slot 6, kicked at 2.5, booked for slot 9 at that
        tick: slot 6 must not walk it, or fire at all."""
        fabric = Fabric(0)
        fabric.kick("s0")
        fabric.then("s0", lambda: fabric.book("s0", 6))
        fabric.run_slots(2.5)
        fabric.then("s0", lambda: fabric.book("s0", 9))
        fabric.kick("s0")
        fabric.run_slots(10)
        assert fabric.walked_at("s0") == [1, 3, 9]
        assert fabric.driver.waves == 3
        assert fabric.driver._calendar == {}

    def test_a_booking_replaces_the_earlier_one(self):
        """Earlier or later, the last booking is the one walked; an
        event aimed at a slot left empty goes with it."""
        fabric = Fabric(0, 1)
        fabric.book("s0", 10)
        fabric.book("s0", 5)
        assert fabric.driver._calendar == {5: 1}
        fabric.book("s1", 20)
        fabric.book("s1", 30)
        fabric.book("s0", None)
        fabric.run_slots(40)
        assert fabric.walked == [(30, "s1")]
        assert fabric.driver.waves == 1

    def test_ticks_plus_parked_is_the_dense_walk(self):
        """Conservation: switches that book their next useful slot make
        the dense walk's ticks minus the slots they sit out booked
        ahead, at the same useful slots, on fewer waves."""

        def script(dense):
            fabric = Fabric(0, 1, 2)
            useful = {"s0": [1, 2, 5, 6, 11], "s1": [1, 4, 14], "s2": [1]}
            def step(name):
                now = fabric.driver.slot_at(fabric.sim.now)
                ahead = [slot for slot in useful[name] if slot > now]
                if ahead:
                    fabric.book(name, now + 1 if dense else ahead[0])
                    fabric.then(name, lambda: step(name))

            for name in useful:
                fabric.kick(name)
                fabric.then(name, lambda name=name: step(name))
            fabric.run_slots(20)
            return fabric

        sparse, dense = script(False), script(True)
        parked = 0
        for name, slots in (("s0", [1, 2, 5, 6, 11]), ("s1", [1, 4, 14])):
            assert sparse.walked_at(name) == slots
            assert dense.walked_at(name) == list(range(1, slots[-1] + 1))
            parked += slots[-1] - len(slots)
        assert sparse.driver.ticks + parked == dense.driver.ticks
        assert sparse.driver.waves < dense.driver.waves == 14

    def test_adopting_into_an_armed_wave_is_refused(self):
        fabric = Fabric(0)
        fabric.kick("s0")
        with pytest.raises(RuntimeError):
            fabric.driver.adopt(fake_switch(switch_id(5), []))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(
        st.integers(0, 3), st.one_of(st.none(), st.integers(1, 12)),
        st.floats(0.0, 3.0),
    ),
    max_size=40,
))
def test_every_wave_walks_its_bookings_and_at_least_one_switch(steps):
    """Any sequence of bookings, replacements and cancellations, some
    made during a walk: each wave walks exactly the switches whose last
    booking is its slot -- at least one -- at that slot's start."""
    fabric = Fabric(0, 1, 2, 3)
    driver = fabric.driver
    waves = []
    fire = driver._fire

    def checked_fire():
        slot = driver._next
        due = {
            name for name, switch in fabric.switches.items()
            if switch._booked == slot
        }
        walked = len(fabric.walked)
        assert fabric.sim.now == driver.time_of(slot)
        fire()
        assert {who for _, who in fabric.walked[walked:]} == due
        waves.append(due)

    driver._fire = checked_fire
    for num, ahead, wait in steps:
        name = f"s{num}"
        slot = None if ahead is None else driver.slot_at(fabric.sim.now) + ahead
        if ahead is not None and ahead % 3 == 0:
            # Booked at the end of its next tick instead.
            fabric.then(name, lambda name=name, ahead=ahead: fabric.book(
                name, driver.slot_at(fabric.sim.now) + ahead
            ))
            fabric.kick(name)
        else:
            fabric.book(name, slot)
        fabric.sim.run(until=fabric.sim.now + wait)
    fabric.sim.run()
    assert all(waves)
    assert driver.waves == len(waves)
    assert all(s._booked is None for s in fabric.switches.values())


class TestSlotClock:
    def test_slot_at_is_exact_at_boundaries(self):
        """``slot_at(time_of(n)) == n`` at every boundary, and one float
        step below it is still slot ``n - 1``; likewise on a clock that
        starts mid-run at slot 1234 with a drifting slot time."""
        shared = FabricSlotDriver(Simulator(), FAST_CELL_TIME_US)
        own = FabricSlotDriver(
            Simulator(), FAST_CELL_TIME_US / (1 + 150e-6),
            shared.time_of(1234), 1234,
        )
        for n in range(0, 3_000_000, 997):
            t = shared.time_of(n)
            assert shared.slot_at(t) == n
            assert shared.slot_at(math.nextafter(t, math.inf)) == n
            if n:
                assert shared.slot_at(math.nextafter(t, -math.inf)) == n - 1
        for n in range(1234, 3_000_000, 991):
            t = own.time_of(n)
            assert own.slot_at(t) == n
            assert own.slot_at(math.nextafter(t, math.inf)) == n
            assert own.slot_at(t - own.slot_time_us / 2) == n - 1

    def test_a_drift_step_continues_the_slot_number(self):
        """A switch stepped off the shared clock mid-slot is in the same
        slot on its own clock, whose next slot starts where the shared
        one's does; its frame position runs on from there."""
        net = converged_line(3)
        s1, shared = net.switch("s1"), net.slot_driver
        net.run(shared.slot_time_us / 3)
        slot = s1.slot_index
        assert slot == shared.slot_at(net.now)
        s1.set_clock_drift(150.0)
        own = s1._slot_driver
        assert own is not shared and s1.slot_index == slot
        assert own.time_of(slot + 1) == shared.time_of(slot + 1)
        assert own.slot_time_us == shared.slot_time_us / (1 + 150e-6)
        net.run(1_000 * shared.slot_time_us)
        assert s1.slot_index - slot == 1_000


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
        the shared clock, and the snapshot says so."""
        net = line_with_hosts(3)
        assert all(
            switch._slot_driver is net.slot_driver
            for switch in net.switches.values()
        )
        gauges = net.metrics_snapshot()["fabric.slot_driver"]["gauges"]
        assert gauges == {"adopted": 3, "waves": 0, "ticks": 0}

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

    def test_drifted_switches_ride_waves_of_their_own(self):
        """Clock drift is the regime the shared clock must not paper
        over: each drifting switch ticks on a one-member clock at its
        local slot time, and the snapshot counts those waves too."""
        net = line_with_hosts(3, drift_ppm=40.0)
        driver = net.slot_driver
        own = [switch._slot_driver for switch in net.switches.values()]
        assert own == driver.own_waves and driver not in own
        for switch, wave in zip(net.switches.values(), own):
            assert switch.clock.drift_ppm != 0.0
            assert wave.slot_time_us == switch.clock.global_delay(
                FAST_CELL_TIME_US
            )
        run(net)
        assert driver.waves == 0 and all(wave.ticks for wave in own)
        gauges = net.metrics_snapshot()["fabric.slot_driver"]["gauges"]
        assert gauges == {
            "adopted": 3,
            "waves": sum(wave.waves for wave in own),
            "ticks": sum(wave.ticks for wave in own),
        }

    def test_mid_run_drift_leaves_and_rejoins_the_wave(self):
        """A clock-drift fault takes exactly that switch off the shared
        clock, onto one of its own, with its booking; stepping back to
        0 ppm returns it."""
        net = line_with_hosts(3)
        driver = net.slot_driver
        armings = []  # (time, node_id) of every booking on the shared clock
        book = driver.book

        def recording(switch, slot):
            if slot is not None:
                armings.append((net.now, str(switch.node_id)))
            book(switch, slot)

        driver.book = recording
        in_wave = []
        fire = driver._fire

        def recording_fire():
            in_wave.append(True)
            fire()
            in_wave.pop()

        driver._fire = recording_fire
        wave_ticks = {}  # node_id -> ticks the shared clock made / made off it
        own_ticks = {}
        for node_id, switch in net.switches.items():
            def recording_tick(slot, node=str(node_id), tick=switch._slot_tick):
                made = wave_ticks if in_wave else own_ticks
                made.setdefault(node, []).append((net.now, slot))
                tick(slot)

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
        # s1 kept forwarding through the window on its own clock, and
        # only there and then; s0 and s2 never ticked off the shared one.
        (own,) = driver.own_waves
        assert own.slot_time_us == driver.slot_time_us / (1 + 150.0e-6)
        assert own_ticks.keys() == {"s1"} and len(own_ticks["s1"]) == own.ticks
        assert all(
            drifted_from < at <= drifted_until and at == own.time_of(slot)
            for at, slot in own_ticks["s1"]
        )
        assert not any(
            drifted_from < at <= drifted_until for at, _ in wave_ticks["s1"]
        )
        # Every tick is at the start of the slot it serves.
        assert all(
            at == driver.time_of(slot)
            for made in wave_ticks.values() for at, slot in made
        )
        assert driver.ticks == sum(len(made) for made in wave_ticks.values())

    def test_drift_step_on_a_parked_switch_unparks_it(self):
        """A switch booked ahead for a reserved slot: a clock-drift step
        moves its booking to the next slot of its own clock, whose tick
        books the reserved slot there; stepping back to 0 ppm moves it
        to the shared clock's next slot."""
        net = converged_line(3)
        stream, _ = net.reserve_bandwidth("h0", "h1", 2)
        net.run(500)
        driver, s1 = net.slot_driver, net.switch("s1")
        in_port = s1.circuits[stream.vc].in_port
        s1.on_cell(s1.ports[in_port], Cell(
            vc=stream.vc, traffic_class=TrafficClass.GUARANTEED,
        ))
        net.run(2 * driver.slot_time_us)
        ahead = s1._booked
        assert ahead > driver.slot_at(net.now) + 1  # its reserved slot
        assert driver._calendar[ahead] >> s1._slot_rank & 1
        ticks = driver.ticks
        s1.set_clock_drift(150.0)
        own = s1._slot_driver
        assert own is not driver and ahead not in driver._calendar
        assert s1._booked == own.slot_at(net.now) + 1
        net.run(2 * driver.slot_time_us)
        assert own.ticks == 1 and driver.ticks == ticks
        assert s1._booked > own.slot_at(net.now) + 1
        s1.set_clock_drift(0.0)
        assert s1._slot_driver is driver and not own._calendar
        assert s1._booked == driver.slot_at(net.now) + 1
        net.run(2 * driver.slot_time_us)
        assert driver.ticks == ticks + 1
        net.run(1_100 * driver.slot_time_us)
        assert s1.stats.guaranteed_forwarded > 0 and not s1.buffered_cells()

    def test_drifting_switch_armed_by_a_reservation_alone_parks(self):
        """Stepped to 120 ppm, a switch holding a 2-slot reservation
        with nothing queued books nothing: not one tick, not one wave."""
        net = converged_line(3)
        net.reserve_bandwidth("h0", "h1", 2)
        net.run(1_000)
        s1 = net.switch("s1")
        assert s1.frame_schedule.total_reserved() and not s1.buffered_cells()
        events = net.sim.events_executed
        s1.set_clock_drift(120.0)
        ticks = []
        tick = s1._slot_tick
        s1._slot_tick = lambda slot: ticks.append(net.now) or tick(slot)
        net.run(10_000)
        assert ticks == [] and s1._booked is None
        assert s1._slot_driver.waves == net.slot_driver.waves == 0
        assert net.sim.events_executed - events < 500  # pings and acks

    def test_consecutive_waves_fire_one_slot_apart(self):
        assert waves_keep_their_slot_time(*wave_fires())

    def test_a_late_wave_is_caught(self, monkeypatch):
        """A wave scheduled one slot after the slot it walks."""

        plan = FabricSlotDriver._plan

        def plan_late(driver):
            event = driver._event
            plan(driver)
            if driver._event is not None and driver._event is not event:
                driver._event.cancel()
                driver._event = driver.sim.schedule_at(
                    driver.time_of(driver._next + 1), driver._fire
                )

        monkeypatch.setattr(FabricSlotDriver, "_plan", plan_late)
        assert not waves_keep_their_slot_time(*wave_fires())


def wave_fires():
    """Fire times and slots of the shared clock and of s1's own, over
    2 ms of a line carrying a reserved stream and best-effort bursts,
    s1 stepped to 120 ppm.  Returns ``(waves, fires)``."""
    net = converged_line(3)
    stream, _ = net.reserve_bandwidth("h0", "h1", 2)
    best = net.setup_circuit("h0", "h1")
    net.run(1_000)
    net.switch("s1").set_clock_drift(120.0)
    driver = net.slot_driver
    waves = (driver, net.switch("s1")._slot_driver)
    fires = {wave: [] for wave in waves}
    for wave in waves:
        def recording_fire(wave=wave, fire=wave._fire):
            fires[wave].append((net.now, wave._next))
            fire()

        wave._fire = recording_fire
    net.host("h0").send_raw_cells(stream.vc, 20)
    for _ in range(10):
        net.host("h0").send_packet(best.vc, Packet(
            source=best.source, destination=best.destination, size=480,
        ))
    net.run(2_000)
    return waves, fires


def waves_keep_their_slot_time(waves, fires) -> bool:
    """Each wave fired at the start of the slot it walked, no two in one
    slot, and the drifting switch's clock at its own rate."""
    shared, own = waves
    return own.slot_time_us != shared.slot_time_us and all(
        len(fires[wave]) > 20
        and all(at == wave.time_of(slot) for at, slot in fires[wave])
        and all(
            later[1] > earlier[1]
            for earlier, later in zip(fires[wave], fires[wave][1:])
        )
        for wave in waves
    )


def parked_on_a_busy_wire():
    """s1 of a converged line, with a best-effort circuit each way and a
    reservation eastward, booked ahead on one east cell: 40 cell times
    of foreign frame hold its east wire, so the tick that finds the cell
    can move nothing and books the slot the wire falls free in."""
    net = converged_line(3)
    east = net.setup_circuit("h0", "h1")
    west = net.setup_circuit("h1", "h0")
    stream, _ = net.reserve_bandwidth("h0", "h1", 2)
    net.run(500)
    s1, driver = net.switch("s1"), net.slot_driver
    in_port = s1.circuits[east.vc].in_port
    out_port = s1.cards[in_port].routing_table.lookup(east.vc).out_port
    s1.ports[out_port].send(
        Cell(vc=999, kind=CellKind.CREDIT, payload=1), bits=40 * CELL_BITS
    )
    empty = s1.stats.empty_ticks
    s1.on_cell(s1.ports[in_port], Cell(vc=east.vc))
    net.run(3 * driver.slot_time_us)
    booked = s1._booked
    assert booked > driver.slot_at(net.now) + 1
    assert driver.time_of(booked) + s1._slack >= s1.ports[out_port].free_at()
    assert driver.time_of(booked - 1) + s1._slack < s1.ports[out_port].free_at()
    assert s1._parked_want == s1.crossbar.want == 1 << out_port
    # The one tick it made moved nothing: counted, and on the gauge.
    assert s1.stats.empty_ticks == empty + 1
    gauges = net.metrics_snapshot()[f"switch.{s1.node_id}"]["gauges"]
    assert gauges["empty_ticks"] == s1.stats.empty_ticks
    return SimpleNamespace(
        net=net, s1=s1, driver=driver, east=east, west=west,
        stream=stream, in_port=in_port, out_port=out_port, booked=booked,
    )


class TestWhatUnparks:
    """A switch booked ahead remembers the ``crossbar.want`` it booked
    with.  A best-effort cell or a credit pulls its booking to the next
    slot only when ``want`` gains an output outside that mask; a
    guaranteed cell always does."""

    def next_slot(self, line):
        return line.driver.slot_at(line.net.now) + 1

    def test_cell_for_an_output_already_wanted_leaves_it_parked(self):
        line = parked_on_a_busy_wire()
        line.s1.on_cell(line.s1.ports[line.in_port], Cell(vc=line.east.vc))
        assert line.s1._booked == line.booked

    def test_cell_for_a_new_output_unparks_it(self):
        line = parked_on_a_busy_wire()
        # West-bound: it arrives on the east port and wants the west one.
        line.s1.on_cell(line.s1.ports[line.out_port], Cell(vc=line.west.vc))
        assert line.s1._booked == self.next_slot(line)

    def test_guaranteed_cell_unparks_it(self):
        line = parked_on_a_busy_wire()
        line.s1.on_cell(
            line.s1.ports[line.in_port],
            Cell(vc=line.stream.vc, traffic_class=TrafficClass.GUARANTEED),
        )
        assert line.s1._booked == self.next_slot(line)

    def test_credit_that_crosses_no_zero_leaves_it_parked(self):
        line = parked_on_a_busy_wire()
        window = line.s1.cards[line.out_port].upstream[line.east.vc]
        assert window.balance > 0
        line.s1.on_cell(
            line.s1.ports[line.out_port],
            Cell(vc=line.east.vc, kind=CellKind.CREDIT, payload=1),
        )
        assert line.s1._booked == line.booked

    def test_a_credit_books_nothing_for_a_switch_with_nothing_queued(self):
        """A tick would move nothing, so none is booked: nor is one for
        a reservation alone."""
        net = converged_line(3)
        circuit = net.setup_circuit("h0", "h1")
        net.reserve_bandwidth("h0", "h1", 2)
        net.run(500)
        s1, driver = net.switch("s1"), net.slot_driver
        out_port = s1.cards[s1.circuits[circuit.vc].in_port].routing_table.lookup(
            circuit.vc
        ).out_port
        assert s1._booked is None and not driver._calendar
        ticks = driver.ticks
        s1.on_cell(
            s1.ports[out_port],
            Cell(vc=circuit.vc, kind=CellKind.CREDIT, payload=1),
        )
        assert s1._booked is None
        net.run(driver.slot_time_us)
        assert driver.ticks == ticks

    def test_every_walk_skipped_is_an_empty_tick(self):
        """The sparse walk skips only ticks the dense walk makes and
        that move nothing: the ticks that are not empty are the same
        number on both sides, and the sparse side makes a third."""
        nets = [
            run_twin(PARKING, reserved_case, 1, reference)[0]
            for reference in (False, True)
        ]
        sparse, dense = (
            (net.slot_driver.ticks, sum(
                s.stats.empty_ticks for s in net.switches.values()
            ))
            for net in nets
        )
        assert sparse[0] - sparse[1] == dense[0] - dense[1]
        assert 3 * sparse[0] < dense[0]

