"""Sparse-vs-dense differential: parking changes no kernel event.

The slot wave walks only the switches that can move a cell; the others
park until their next useful slot or until an edge kicks them.  The
reference here is the same ``Network`` with its driver's ``park``
overridden on the instance so that every armed switch is due at every
wave (:func:`repro.conform.oracle.compare_parking`).  Both runs must
dispatch the same kernel events -- every ``(time, seq, callback)`` --
and end in the same un-scrubbed ``fingerprint_network`` (slot indices
and event counts included), and the walks the sparse run skipped must
be exactly the ones it reports as ``parked``.

Each named case puts one kind of edge under a parked switch: the kick
that edge owes is what keeps the two runs equal.
"""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.conform.oracle import compare_parking, replay_case, reserved_case
from repro.net.cell import CellKind
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from tests.conftest import (
    fast_host_config,
    fast_switch_config,
    line_with_hosts,
    plain_credit_filter,
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


def send(net, circuit, cells, copies=1):
    source = net.host(circuit.source)
    for _ in range(copies):
        source.send_packet(
            circuit.vc,
            Packet(
                source=circuit.source, destination=circuit.destination,
                size=48 * cells,
            ),
        )


def release(net, reservation, cells):
    for switch, in_port, out_port in reservation.switch_hops:
        net.switches[switch].remove_reservation(in_port, out_port, cells)


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
    send(net, best, cells=20, copies=3)
    net.run(1_500)
    second, also_held = net.reserve_bandwidth("h0", "h1", 8)
    net.run(300)
    net.host("h0").send_raw_cells(second.vc, 60)
    net.run(2_000)
    release(net, held, 4)
    send(net, best, cells=10)
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
        send(net, circuit, cells=12, copies=4)
    net.run(150)
    net.fail_link("s1", "s3")
    net.run(6_000)
    for circuit in circuits:
        send(net, circuit, cells=12, copies=2)
    net.run(400)
    net.restore_link("s1", "s3")
    net.run(12_000)
    net.crash_switch("s2")
    send(net, circuits[0], cells=12, copies=2)
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
        send(net, circuit, cells=20, copies=3)
    net.run(120)
    s0 = net.switch("s0")
    assert s0._queued > 0
    s0.remove_circuit(victim.vc)  # the backlog is discarded
    assert not net.switch("s2").page_out(paged.vc)  # cells queued: no
    net.host("h1").close_circuit(closed.vc)  # teardown chases cells
    net.run(20_000)
    assert net.switch("s2").page_out(paged.vc)
    net.run(3_000)
    send(net, paged, cells=8)  # pages the circuit back in
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
    send(net, circuit, cells=8)
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


def multicast_fanout(seed, prepare):
    net = grid(seed, prepare, credit_allocation=3)
    group = net.setup_multicast("h0", ["h1", "h2", "h3"])
    unicast = net.setup_circuit("h1", "h3")
    send(net, group, cells=10, copies=5)
    send(net, unicast, cells=10, copies=5)
    net.run(200)  # copies wait on several branches, h3's the slowest
    net.host("h0").close_circuit(group.vc)
    net.run(40_000)
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
    send(net, circuit, cells=20, copies=6)
    net.run(15_000)  # windows close; resync rounds re-open them
    trunk.drop_filter = None
    send(net, circuit, cells=20, copies=2)
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
    send(net, best, cells=15, copies=4)
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
        send(net, circuit, cells=20, copies=3)
    net.run(1_000)
    victim = fabric.switches_in_tier("core")[seed % 4]
    net.crash_switch(victim)
    net.run(15_000)
    net.restore_switch(victim)
    for circuit in incast:
        send(net, circuit, cells=10)
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
    "multicast": multicast_fanout,
    "lost-credits": lost_credits_with_resync,
    "drift": drift_steps_on_a_parked_switch,
    "fat-tree": fat_tree_mixed,
}


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_is_event_identical(name, seed):
    divergence, record = compare_parking(CASES[name], name, seed)
    assert divergence is None, str(divergence)
    # Not vacuous: switches did park, and the ledger adds up.
    assert record["parked"] > 0
    assert record["ticks"] + record["parked"] == record["ticks_dense"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_scenario_is_event_identical(seed):
    divergence, record = compare_parking(replay_case, "replay", seed)
    assert divergence is None, str(divergence)


# ======================================================================
# random action sequences
# ======================================================================
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from([
            "burst", "burst", "burst", "run", "run", "run", "open",
            "multicast", "close", "remove", "page_out", "fail", "restore",
            "crash", "credit_loss", "reserve", "release", "stream", "drift",
        ]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=8, max_size=20,
)


def scripted(seed, prepare, actions):
    """``actions`` interpreted against the grid: every step a function
    of the list and of simulated state only, so both runs take it."""

    def pick(items, n):
        return items[n % len(items)]

    net = grid(
        seed, prepare, credit_allocation=3,
        enable_paging=True, paging_idle_us=2_000.0,
        enable_local_reroute=True, resync_interval_us=3_000.0,
        nested_subframe_slots=8 if seed % 2 else None,
    )
    hosts = ["h0", "h1", "h2", "h3"]
    trunks = [("s0", "s1"), ("s0", "s2"), ("s1", "s3"), ("s2", "s3")]
    unicast, held, failed, crashed = [], [], [], []
    for name, n in actions:
        if name == "open" or (name == "burst" and not unicast):
            src = pick(hosts, n)
            dst = pick([h for h in hosts if h != src], n // 7)
            try:
                unicast.append(net.setup_circuit(src, dst))
            except Exception:
                pass  # no route while views disagree
        elif name == "burst":
            circuit = pick(unicast, n)
            if circuit.vc in net.host(circuit.source).senders:
                send(net, circuit, cells=1 + n % 12, copies=1 + n % 4)
        elif name == "run":
            net.run(20 + n % 3_000)
        elif name == "multicast":
            src = pick(hosts, n)
            try:
                group = net.setup_multicast(
                    src, [h for h in hosts if h != src]
                )
            except Exception:
                continue
            net.host(src).send_raw_cells(group.vc, 1 + n % 20)
        elif name == "close" and unicast:
            circuit = unicast.pop(n % len(unicast))
            net.host(circuit.source).close_circuit(circuit.vc)
        elif name == "remove" and unicast:
            circuit = pick(unicast, n)
            pick(sorted(net.switches.items()), n // 5)[1].remove_circuit(
                circuit.vc
            )
        elif name == "page_out" and unicast:
            circuit = pick(unicast, n)
            for _, switch in sorted(net.switches.items()):
                switch.page_out(circuit.vc)
        elif name == "fail" and not failed:
            failed.append(pick(trunks, n))
            net.fail_link(*failed[-1])
        elif name == "restore":
            if failed:
                net.restore_link(*failed.pop())
            if crashed:
                net.restore_switch(crashed.pop())
        elif name == "crash" and not crashed and not failed:
            crashed.append(pick(["s1", "s2"], n))
            net.crash_switch(crashed[-1])
        elif name == "credit_loss":
            link = net.link_between(*pick(trunks, n))
            link.drop_filter = (
                None if link.drop_filter is not None
                else plain_credit_filter(random.Random(n), 0.4)
            )
        elif name == "reserve" and len(held) < 3 and not failed:
            cells = 1 + n % 6
            try:
                circuit, reservation = net.reserve_bandwidth(
                    pick(hosts[:3], n), "h3", cells
                )
            except Exception:
                continue  # views disagree, or the link is full
            held.append((circuit, reservation, cells))
            net.run(100)  # the hops install it, one control delay each
        elif name == "stream" and held:
            circuit, _, _ = pick(held, n)
            net.host(circuit.source).send_raw_cells(
                circuit.vc, 1 + n % 40
            )
        elif name == "release" and held:
            _, reservation, cells = held.pop(n % len(held))
            release(net, reservation, cells)
        elif name == "drift":
            pick(sorted(net.switches.items()), n)[1].set_clock_drift(
                pick([0.0, 120.0, 0.0, -60.0], n // 3)
            )
    net.run(8_000)
    return net


@settings(
    max_examples=12, deadline=None, derandomize=True,
    # Two whole-Network runs an example: report a failure, don't shrink it.
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(min_value=0, max_value=50), actions=ACTIONS)
@example(
    # A drift step and the release of the last reservation in one
    # instant, on a switch parked reserved-idle.
    seed=0,
    actions=[("burst", 0)] * 5
    + [("reserve", 0), ("drift", 178), ("release", 0)],
)
def test_random_control_actions_are_event_identical(seed, actions):
    divergence, _ = compare_parking(
        partial(scripted, actions=actions), "scripted", seed
    )
    assert divergence is None, str(divergence)
