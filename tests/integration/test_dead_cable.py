"""One fate for a circuit on a dead cable (section 2).

"drop cells only when the path of their virtual circuit goes through a
failed link ... the virtual circuit can be rerouted by sending a new
circuit setup cell from the point where the path was broken."

The probe: ``ring(4)`` with h0 at s0 and h1 at s2, seed 3.  Fifty cells
are sent and the circuit's trunk at s0 is cut while they are still
queued there; once the network has reconfigured, fifty more are sent.
A best-effort circuit is rerouted and carries the second fifty; a
guaranteed one cannot move (its detour has no frame reservation), so it
is broken and every cell for it is dropped and counted at s0.  Neither
kind keeps s0 ticking for the dead wire.
"""

import pytest

from repro._types import host_id
from repro.constants import FAST_CELL_TIME_US
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.reroute import installed_path
from repro.faults.invariants import check_no_wait_on_dead_wire
from repro.fastpath.driver import FabricSlotDriver
from repro.net.network import Network
from repro.net.port import Port
from repro.net.topology import Topology
from repro.obs.trace import Tracer
from repro.switch.switch import AN2Switch
from tests.conftest import fast_host_config, fast_switch_config


def probe(guaranteed: bool, tracer: Tracer = None) -> dict:
    topo = Topology.ring(4)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s2", port_a=0, bps=622_000_000)
    net = Network(
        topo, seed=3,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    net.sim.tracer = tracer
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    if guaranteed:
        circuit, _ = net.reserve_bandwidth("h0", "h1", 2)
        net.run(200)
    else:
        circuit = net.setup_circuit("h0", "h1")
    h0, h1, s0 = net.host("h0"), net.host("h1"), net.switch("s0")
    trunk = net.link_between("s0", installed_path(net, circuit.vc, host_id(0))[2])
    dead_port = trunk.port_a if trunk.port_a.node is s0 else trunk.port_b

    verdicts = []
    published = s0._on_verdict

    def spy(port_index, verdict, now):
        if port_index == dead_port.index and verdict is LinkVerdict.DEAD:
            verdicts.append((now, s0.stats.empty_ticks))
        published(port_index, verdict, now)

    s0._on_verdict = spy
    h0.send_raw_cells(circuit.vc, 50)
    empty_before, cut_at = s0.stats.empty_ticks, net.now
    events_before = net.sim.events_executed
    trunk.fail()
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    wait = check_no_wait_on_dead_wire(net)
    dropped, delivered = s0.stats.cells_dropped, len(h1.delivered)
    h0.send_raw_cells(circuit.vc, 50)
    net.run(60_000)
    (verdict_at, _), = verdicts
    return {
        "net": net,
        "s0": s0,
        "vc": circuit.vc,
        "wait": wait,
        "delivered_after": len(h1.delivered) - delivered,
        "dropped_after": s0.stats.cells_dropped - dropped,
        "empty_after_cut": s0.stats.empty_ticks - empty_before,
        "events_after_cut": net.sim.events_executed - events_before,
        "slots_to_verdict": (verdict_at - cut_at) / FAST_CELL_TIME_US,
    }


def assert_best_effort_fate(run: dict) -> None:
    assert run["delivered_after"] == 50
    # Each empty tick answers an edge (a cell in, a verdict), not the
    # dead wire: a switch polling it makes one per slot until the verdict.
    assert 100 * run["empty_after_cut"] < run["slots_to_verdict"], (
        f"empty_after_cut={run['empty_after_cut']}, "
        f"slots_to_verdict={run['slots_to_verdict']:.0f}"
    )
    assert run["wait"].passed, run["wait"].detail


def test_best_effort_circuit_is_rerouted_and_the_dead_wire_wakes_nobody():
    assert_best_effort_fate(probe(guaranteed=False))


def test_guaranteed_circuit_is_broken_and_counted():
    run = probe(guaranteed=True)
    s0 = run["s0"]
    assert s0.stats.broken_circuits == 1
    assert run["dropped_after"] == 50  # every cell sent after the verdict
    assert s0.buffered_cells() == 0
    assert run["wait"].passed, run["wait"].detail


@pytest.mark.parametrize("guaranteed", [False, True])
def test_no_wave_walks_zero_switches(guaranteed, monkeypatch):
    """A wave fires only at a slot some switch booked: each walks at
    least one switch.  The guaranteed probe's broken reservation arms
    nothing, so the 60 ms after the cut cost a few hundred events."""
    fire = FabricSlotDriver._fire
    empty = []

    def counted_fire(driver):
        ticks = driver.ticks
        fire(driver)
        if driver.ticks == ticks:
            empty.append(driver.sim.now)

    monkeypatch.setattr(FabricSlotDriver, "_fire", counted_fire)
    run = probe(guaranteed=guaranteed)
    assert run["net"].slot_driver.waves > 0
    assert empty == []
    if guaranteed:
        assert run["events_after_cut"] < 2_000, run["events_after_cut"]


def test_closing_the_broken_circuit_frees_everything_s0_held():
    """The break keeps the circuit's record, its 2 frame slots
    included; its host's teardown then frees all of it at s0."""
    run = probe(guaranteed=True)
    net, s0, vc = run["net"], run["s0"], run["vc"]
    assert s0.circuits[vc].broken
    assert s0.frame_schedule.total_reserved() == 2
    net.host("h0").close_circuit(vc)
    net.run(5_000)
    assert vc not in s0.circuits and s0.holdings(vc) == set()
    assert s0.frame_schedule.total_reserved() == 0


def test_a_broken_circuits_cells_each_end_in_a_drop_record():
    tracer = Tracer()
    run = probe(guaranteed=True, tracer=tracer)
    drops = [
        r for r in tracer.records
        if r.category == "journey" and r.name == "drop"
        and r.payload.get("reason") == "broken"
    ]
    assert len(drops) == run["s0"].stats.cells_dropped >= 50


def test_a_restore_before_the_verdict_kicks_the_parked_switch():
    """Cells queued for a wire that comes back before its DEAD verdict
    are sent: the restore, not a poll, wakes the switch."""
    topo = Topology.line(2)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=0, bps=622_000_000)
    net = Network(
        topo, seed=3,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s0", "s1")
    trunk.fail()
    net.host("h0").send_raw_cells(circuit.vc, 20)
    net.run(100)
    s0 = net.switch("s0")
    assert s0.buffered_cells() > 0
    assert s0._booked is None  # no slot booked for a dead wire
    trunk.restore()
    net.run(200)
    assert len(net.host("h1").delivered) == 20
    assert s0.stats.reroutes == s0.stats.broken_circuits == 0


def test_the_old_wake_on_a_dead_wire_is_caught(monkeypatch):
    """Restore the old rule -- a down wanted output is as good as free,
    polled every slot -- and the probe's empty-tick bound fails."""
    free_at = Port.free_at

    def as_good_as_free(port):
        at = free_at(port)
        return port.node.sim.now if at is None else at

    monkeypatch.setattr(Port, "free_at", as_good_as_free)
    with pytest.raises(AssertionError, match="empty_after_cut"):
        assert_best_effort_fate(probe(guaranteed=False))


def test_cells_kept_for_a_dead_wire_are_caught(monkeypatch):
    """Break circuits without dropping what they hold, and the
    predicate names the switch that keeps cells for the dead output."""
    monkeypatch.setattr(
        AN2Switch, "_move_or_break",
        lambda switch, circuit: switch._reroute(circuit),
    )
    run = probe(guaranteed=True)
    assert not run["wait"].passed
    assert "s0.p" in run["wait"].detail
