"""Sparse-vs-dense differential: parking changes no kernel event.

The slot wave walks only the switches that can move a cell; the others
park until their next useful slot or until an edge kicks them.  The
reference is the same ``Network`` with every armed switch due at every
wave: :data:`repro.conform.oracle.PARKING`, the harness's parking row.
Both runs must dispatch the same kernel events -- every ``(time, seq,
callback)`` -- and end in the same un-scrubbed ``fingerprint_network``
(slot indices and event counts included), and the walks the sparse run
skipped must be exactly the ones it reports as ``parked``.

Each named case puts one kind of edge under a parked switch: the kick
that edge owes is what keeps the two runs equal.
"""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.conform.oracle import (
    ACTIONS,
    PARKING,
    compare,
    play,
    plain_credit_filter,
    release,
    reserved_case,
    send_cells,
)
from repro.net.cell import CellKind
from repro.net.network import Network
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from tests.conftest import (
    fast_host_config,
    fast_switch_config,
    line_with_hosts,
)


def boot(net, prepare):
    prepare(net)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def grid(seed, prepare, **overrides):
    """Hosts on the corners of a 2x2 grid; h3 hangs off a slow link, so
    traffic converging on it finds its wire busy four slots in five."""
    topo = Topology.grid(2, 2)
    for h in range(4):
        topo.add_host(h)
        topo.connect(
            f"h{h}", f"s{h}", port_a=0,
            bps=155_000_000 if h == 3 else 622_000_000,
        )
    net = Network(
        topo, seed=seed,
        switch_config=fast_switch_config(**overrides),
        host_config=fast_host_config(),
    )
    return boot(net, prepare)


# ======================================================================
# named cases
# ======================================================================
def reservations_come_and_go(seed, prepare, nested=False):
    """Guaranteed and best-effort circuits over one line; a second
    reservation is added mid-stream (Slepian-Duguid moves under parked
    switches), then both are removed, the last one while every switch is
    parked reserved-idle."""
    net = boot(
        line_with_hosts(
            3, seed=seed, credit_allocation=2,
            nested_subframe_slots=8 if nested else None,
        ),
        prepare,
    )
    first, held = net.reserve_bandwidth("h0", "h1", 4)
    best = net.setup_circuit("h0", "h1")
    net.run(500)
    net.host("h0").send_raw_cells(first.vc, 120)
    send_cells(net, best, cells=20, copies=3)
    net.run(1_500)
    second, also_held = net.reserve_bandwidth("h0", "h1", 8)
    net.run(300)
    net.host("h0").send_raw_cells(second.vc, 60)
    net.run(2_000)
    release(net, held, 4)
    send_cells(net, best, cells=10)
    net.run(4_000)
    release(net, also_held, 8)
    net.run(3_000)
    assert all(
        s.frame_schedule.total_reserved() == 0
        for s in net.switches.values()
    )
    return net


def faults_under_wanted_outputs(seed, prepare):
    """Incast on the slow host: wire-busy and credit-blocked switches
    park.  A trunk they want fails and comes back, with local reroute;
    then a switch on the path crashes and restarts."""
    net = grid(
        seed, prepare, credit_allocation=3,
        enable_local_reroute=True, resync_interval_us=3_000.0,
    )
    circuits = [net.setup_circuit(f"h{h}", "h3") for h in range(3)]
    for circuit in circuits:
        send_cells(net, circuit, cells=12, copies=4)
    net.run(150)
    net.fail_link("s1", "s3")
    net.run(6_000)
    for circuit in circuits:
        send_cells(net, circuit, cells=12, copies=2)
    net.run(400)
    net.restore_link("s1", "s3")
    net.run(12_000)
    net.crash_switch("s2")
    send_cells(net, circuits[0], cells=12, copies=2)
    net.run(10_000)
    net.restore_switch("s2")
    net.run(30_000)
    return net


def teardown_and_page_out_with_cells_queued(seed, prepare):
    net = grid(
        seed, prepare, credit_allocation=2,
        enable_paging=True, paging_idle_us=2_000.0,
    )
    victim = net.setup_circuit("h0", "h3")
    closed = net.setup_circuit("h1", "h3")
    paged = net.setup_circuit("h2", "h3")
    for circuit in (victim, closed, paged):
        send_cells(net, circuit, cells=20, copies=3)
    net.run(120)
    s0 = net.switch("s0")
    assert s0._queued > 0
    s0.remove_circuit(victim.vc)  # the backlog is discarded
    assert not net.switch("s2").page_out(paged.vc)  # cells queued: no
    net.host("h1").close_circuit(closed.vc)  # teardown chases cells
    net.run(20_000)
    assert net.switch("s2").page_out(paged.vc)
    net.run(3_000)
    send_cells(net, paged, cells=8)  # pages the circuit back in
    net.run(40_000)
    return net


def release_empties_a_credit_blocked_switch(seed, prepare, release):
    """s0 is parked on cells that wait for credits a filter eats.  A
    repeated setup points the circuit at another output, so the release
    (teardown or page-out) finds -- and discards -- cells under the old
    one: the queue that kept s0 armed is gone, and only the release's
    kick lets s0 notice."""
    net = grid(seed, prepare, credit_allocation=2)
    circuit = net.setup_circuit("h0", "h1")
    s0 = net.switch("s0")
    card = s0.cards[s0._vc_in_port[circuit.vc]]
    entry = card.routing_table.lookup(circuit.vc)
    net.link_between("s0", "s1").drop_filter = (
        lambda cell: cell.kind is CellKind.CREDIT
    )
    send_cells(net, circuit, cells=8)
    net.run(500)
    assert s0._queued and not s0.crossbar.want  # rule (iii): parks
    other = next(
        c.index for c in s0.cards
        if c.index not in (card.index, entry.out_port) and c.port.connected
    )
    s0.install_circuit(circuit.vc, card.index, other, entry.request)
    net.run(50)
    assert s0._queued and not s0.crossbar.want
    getattr(s0, release)(circuit.vc)
    assert not s0._queued
    net.run(5_000)
    return net


def lost_credits_with_resync(seed, prepare):
    net = boot(
        line_with_hosts(
            3, seed=seed, credit_allocation=3,
            resync_interval_us=2_000.0,
        ),
        prepare,
    )
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s1", "s2")
    trunk.drop_filter = plain_credit_filter(random.Random(seed), 0.5)
    send_cells(net, circuit, cells=20, copies=6)
    net.run(15_000)  # windows close; resync rounds re-open them
    trunk.drop_filter = None
    send_cells(net, circuit, cells=20, copies=2)
    net.run(30_000)
    assert len(net.host("h1").delivered) == 8
    return net


def drift_steps_on_a_parked_switch(seed, prepare):
    """s1 holds a reservation: parked reserved-idle, or waiting for a
    reserved slot, whenever a drift step lands (to non-zero, and back)."""
    net = boot(line_with_hosts(3, seed=seed), prepare)
    stream, _ = net.reserve_bandwidth("h0", "h1", 2)
    best = net.setup_circuit("h0", "h1")
    net.run(1_000)
    s1 = net.switch("s1")
    for at, ppm in (
        (700.0, 180.0), (2_900.0, 0.0), (4_100.0, -90.0), (6_300.0, 0.0),
    ):
        net.sim.schedule(at, s1.set_clock_drift, ppm)
    net.run(500)  # the first step finds s1 idle under its reservation
    net.host("h0").send_raw_cells(stream.vc, 200)
    send_cells(net, best, cells=15, copies=4)
    net.run(12_000)
    assert net.host("h1").cells_received == 260
    return net


def fat_tree_mixed(seed, prepare):
    """fat_tree(k=4): reserved streams across pods, best-effort incast
    on slow host links, one core switch crashed and restored."""
    fabric = fat_tree(k=4, hosts_per_edge=2)
    net = boot(
        Network(
            fabric.topology, seed=seed,
            switch_config=fast_switch_config(
                enable_local_reroute=True, resync_interval_us=4_000.0,
            ),
            host_config=fast_host_config(),
        ),
        prepare,
    )
    rng = random.Random(seed)
    hosts = sorted(str(h) for h in net.hosts)
    streams = [
        net.reserve_bandwidth(hosts[i], hosts[-1 - i], 2 + i)[0]
        for i in range(3)
    ]
    sink = hosts[5]
    incast = [
        net.setup_circuit(src, sink) for src in rng.sample(hosts[6:], 3)
    ]
    net.run(500)
    for stream in streams:
        net.host(stream.source).send_raw_cells(stream.vc, 80)
    for circuit in incast:
        send_cells(net, circuit, cells=20, copies=3)
    net.run(1_000)
    victim = fabric.switches_in_tier("core")[seed % 4]
    net.crash_switch(victim)
    net.run(15_000)
    net.restore_switch(victim)
    for circuit in incast:
        send_cells(net, circuit, cells=10)
    net.run(40_000)
    return net



CASES = {
    "reserved": reserved_case,
    "reservations": reservations_come_and_go,
    "nested-reservations": partial(reservations_come_and_go, nested=True),
    "faults": faults_under_wanted_outputs,
    "teardown": teardown_and_page_out_with_cells_queued,
    "stranded-remove": partial(
        release_empties_a_credit_blocked_switch, release="remove_circuit"
    ),
    "stranded-page-out": partial(
        release_empties_a_credit_blocked_switch, release="page_out"
    ),
    "lost-credits": lost_credits_with_resync,
    "drift": drift_steps_on_a_parked_switch,
    "fat-tree": fat_tree_mixed,
}


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_is_event_identical(name, seed):
    divergence, record = compare(PARKING, name, CASES[name], seed)
    assert divergence is None, str(divergence)
    assert record["candidate"]["walks"][2] > 0  # not vacuous: switches parked


# ======================================================================
# random action sequences
# ======================================================================
def scripted(seed, prepare, actions):
    """``actions`` played on the grid: trunks fail one at a time, and
    only the two middle switches crash."""
    net = grid(
        seed, prepare, credit_allocation=3,
        enable_paging=True, paging_idle_us=2_000.0,
        enable_local_reroute=True, resync_interval_us=3_000.0,
        nested_subframe_slots=8 if seed % 2 else None,
    )
    trunks = [("s0", "s1"), ("s0", "s2"), ("s1", "s3"), ("s2", "s3")]
    play(
        net, actions, links=[net.link_between(*trunk) for trunk in trunks],
        crashable=["s1", "s2"],
    )
    net.run(8_000)
    return net


@settings(
    max_examples=12, deadline=None, derandomize=True,
    # Two whole-Network runs an example: report a failure, don't shrink it.
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(
        st.tuples(st.sampled_from(ACTIONS), st.integers(0, 10**6)),
        min_size=8, max_size=20,
    ),
)
@example(
    # A drift step and the release of the last reservation in one
    # instant, on a switch parked reserved-idle.
    seed=0,
    actions=[("burst", 0)] * 5
    + [("reserve", 0), ("drift", 178), ("release", 0)],
)
def test_random_control_actions_are_event_identical(seed, actions):
    divergence, _ = compare(
        PARKING, "scripted", partial(scripted, actions=actions), seed
    )
    assert divergence is None, str(divergence)
