"""The maintained crossbar request state equals the rebuilt one, everywhere.

``AN2Switch`` does not rebuild its request matrix each slot: per-card
ready sets and the ``Crossbar``'s rows, columns and union are flipped on
edges (cell queued or served, credit granted, consumed or
resynchronized, circuit installed, torn down, paged out or rerouted).
The predicate the switch used to evaluate per slot lives on here as the
oracle:

- :func:`rebuilt_state` recomputes the ready sets from the queues and
  credit balances, and :class:`MaskAudit` compares them -- and, through
  the shared :func:`assert_crossbar_mirrors`, the crossbar's matrix --
  after every slot tick and after every control action a test performs;
- inside each tick, the rows ``Crossbar.schedule`` hands the kernel must
  equal :func:`slot_requests` (the old ``can_send`` closure, wire test
  included), and a reference ``ParallelIterativeMatcher`` run on a clone
  of the RNG must produce the same pairs in the same order and leave the
  RNG where ``BitmaskPim`` left it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._types import host_id
from repro.conform.reference import ParallelIterativeMatcher
from repro.core.flowcontrol.resync import ResyncReply
from repro.conform.oracle import ACTIONS, plain_credit_filter, play
from repro.core.matching.bitmask import bits_of
from repro.net.cell import Cell, CellKind
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config
from tests.switch.crossbar_audit import assert_crossbar_mirrors


# ======================================================================
# the oracle: the from-scratch predicate
# ======================================================================
def sendable(switch, out_port, vc):
    """Credit half of the old per-slot predicate."""
    if switch.config.flow_control != "credits":
        return True
    upstream = switch.cards[out_port].upstream.get(vc)
    return upstream is not None and upstream.balance > 0


def rebuilt_state(switch):
    """Ready sets recomputed from queues and credits:
    ``(card, out_port) -> circuits`` for every non-empty set."""
    ready = {}
    for card in switch.cards:
        for out_port, group in card.vc_queues._queues.items():
            vcs = {
                vc for vc, queue in group.items()
                if queue and sendable(switch, out_port, vc)
            }
            if vcs:
                ready[(card.index, out_port)] = vcs
    return ready


def maintained_state(switch):
    return {
        (card.index, out_port): set(vcs)
        for card in switch.cards
        for out_port, vcs in card.vc_queues._ready.items()
        if vcs
    }


def slot_requests(switch, pre_matched, now, slack):
    """The request sets the old tick built through its ``can_send``
    closure: queue non-empty, output not pre-matched, wire free, and (in
    credit mode) an upstream balance above zero."""
    used = set(pre_matched.values())
    requests = []
    for card in switch.cards:
        wanted = set()
        if card.index not in pre_matched:
            for out_port, group in card.vc_queues._queues.items():
                if out_port in used:
                    continue
                if not switch.ports[out_port].can_transmit_at(now, slack=slack):
                    continue
                if any(
                    queue and sendable(switch, out_port, vc)
                    for vc, queue in group.items()
                ):
                    wanted.add(out_port)
        requests.append(wanted)
    return requests


class MaskAudit:
    """Attach to every switch of a network; fail on the first mismatch."""

    def __init__(self, net):
        self.net = net
        self.ticks = 0
        self.schedules = 0
        self.wide_bits_seen = False
        for switch in net.switches.values():
            self._attach(switch)

    def _attach(self, switch):
        tick = switch._slot_tick
        schedule = switch.crossbar.schedule
        crossbar = switch.crossbar
        matcher = crossbar.matcher

        def audited_tick():
            tick()
            self.ticks += 1
            self.check(switch)

        def audited_schedule(pre_matched, available):
            self.schedules += 1
            pre = dict(pre_matched)
            now = switch.sim.now
            slack = 0.5 * switch.config.slot_time_us
            expected = slot_requests(switch, pre, now, slack)
            masks = [row & available for row in crossbar.rows]
            for in_port, wanted in enumerate(expected):
                if in_port not in pre:
                    assert set(bits_of(masks[in_port])) == wanted, (
                        switch.node_id, in_port, masks, expected
                    )
            if any(mask >> 16 for mask in masks):
                self.wide_bits_seen = True
            reference = ParallelIterativeMatcher(
                matcher.n_ports, matcher.iterations, rng=random.Random()
            )
            reference.rng.setstate(matcher.rng.getstate())
            want = reference.match(expected, pre_matched=pre)
            got = schedule(pre_matched, available)
            assert list(got.matching.items()) == list(want.matching.items())
            assert got.iterations_to_maximal == want.iterations_to_maximal
            assert matcher.rng.getstate() == reference.rng.getstate()
            return got

        switch._slot_tick = audited_tick
        switch.crossbar.schedule = audited_schedule

    def check(self, switch):
        ready = rebuilt_state(switch)
        assert maintained_state(switch) == ready, switch.node_id
        assert_crossbar_mirrors(
            switch.crossbar,
            [
                {out for card, out in ready if card == index}
                for index in range(len(switch.cards))
            ],
            switch.node_id,
        )
        assert switch._queued == sum(
            card.buffered_cells() for card in switch.cards
        ), switch.node_id

    def check_all(self):
        for switch in self.net.switches.values():
            self.check(switch)


# ======================================================================
# networks
# ======================================================================
def grid_net(seed=3, hosts=4, **overrides):
    """Hosts on the corners of a 2x2 switch grid (two paths everywhere)."""
    topo = Topology.grid(2, 2)
    for h in range(hosts):
        topo.add_host(h)
        topo.connect(f"h{h}", f"s{h}", port_a=0, bps=622_000_000)
    return booted(topo, seed, **overrides)


def booted(topo, seed, **overrides):
    net = Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(**overrides),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def send(net, circuit, src, dst, cells, copies=1):
    for _ in range(copies):
        net.host(src).send_packet(
            circuit.vc,
            Packet(
                source=net.host(src).node_id,
                destination=host_id(int(dst[1:])),
                size=48 * cells,
            ),
        )


def in_card_and_entry(switch, vc):
    card = switch.cards[switch._vc_in_port[vc]]
    return card, card.routing_table.lookup(vc)


def run_until_requesting(net, switch, card):
    """Stop between two events, with a cell of ``card`` queued and ready."""
    net.run_until(
        lambda: switch.crossbar.rows[card.index] != 0,
        timeout_us=5_000, check_interval_us=0.2,
    )


# ======================================================================
# named scenarios
# ======================================================================
@pytest.mark.parametrize("flow_control", ["credits", "drop"])
def test_contended_unicast_traffic(flow_control):
    """Three senders converge on one host link, in both flow-control
    modes; every tick and every schedule call is audited."""
    net = grid_net(flow_control=flow_control, credit_allocation=4)
    audit = MaskAudit(net)
    circuits = [(net.setup_circuit(src, "h3"), src) for src in ("h0", "h1", "h2")]
    audit.check_all()
    for circuit, src in circuits:
        send(net, circuit, src, "h3", cells=10, copies=4)
    net.run(400_000)
    audit.check_all()
    assert audit.schedules > 100
    assert net.host("h3").cells_received > 50
    for switch in net.switches.values():
        assert switch.crossbar.want == 0 and switch._queued == 0


def test_remove_circuit_with_cells_queued():
    """Teardown discards a backlog whose request bits must go with it."""
    net = grid_net(credit_allocation=2)
    audit = MaskAudit(net)
    victim = net.setup_circuit("h0", "h3")
    bystander = net.setup_circuit("h1", "h3")
    send(net, victim, "h0", "h3", cells=20, copies=3)
    send(net, bystander, "h1", "h3", cells=20, copies=1)
    s0 = net.switch("s0")
    card, entry = in_card_and_entry(s0, victim.vc)
    run_until_requesting(net, s0, card)
    assert victim.vc in card.vc_queues.queued_vcs(entry.out_port)
    dropped_before = s0.stats.cells_dropped
    s0.remove_circuit(victim.vc)
    assert s0.stats.cells_dropped > dropped_before
    audit.check_all()
    assert s0.crossbar.rows[card.index] == 0
    net.run(200_000)
    audit.check_all()
    assert len(net.host("h3").delivered) == 1


def test_page_out_and_page_in():
    net = grid_net(enable_paging=True, paging_idle_us=5_000.0)
    audit = MaskAudit(net)
    circuit = net.setup_circuit("h0", "h3")
    send(net, circuit, "h0", "h3", cells=3)
    net.run(30_000)
    s0 = net.switch("s0")
    assert s0.page_out(circuit.vc)
    audit.check_all()
    net.run(5_000)
    audit.check_all()
    # New cells wait in the pending buffer, then are enqueued by the
    # regenerated setup: install_circuit is the edge that readies them.
    send(net, circuit, "h0", "h3", cells=5)
    net.run(80_000)
    audit.check_all()
    assert s0.stats.page_ins == 1
    assert len(net.host("h3").delivered) == 2


def test_local_reroute_moves_queued_cells():
    net = grid_net(enable_local_reroute=True, credit_allocation=2)
    audit = MaskAudit(net)
    circuit = net.setup_circuit("h0", "h3")
    s0 = net.switch("s0")
    card, entry = in_card_and_entry(s0, circuit.vc)
    old_out = entry.out_port
    send(net, circuit, "h0", "h3", cells=20, copies=2)
    run_until_requesting(net, s0, card)
    assert circuit.vc in card.vc_queues.queued_vcs(old_out)
    neighbor = s0.neighbor(old_out)[0]
    net.fail_link("s0", str(neighbor))
    net.run_until(lambda: s0.stats.reroutes >= 1, timeout_us=100_000)
    audit.check_all()
    assert entry.out_port != old_out
    assert not s0.crossbar.rows[card.index] & (1 << old_out)
    net.run(300_000)
    audit.check_all()
    assert s0._queued == 0


def test_lost_credits_and_periodic_resync():
    net = grid_net(resync_interval_us=4_000.0, credit_allocation=4, hosts=2)
    audit = MaskAudit(net)
    circuit = net.setup_circuit("h0", "h1")
    trunk = net.link_between("s0", "s1")
    trunk.drop_filter = plain_credit_filter(random.Random(17), 0.3)
    send(net, circuit, "h0", "h1", cells=10, copies=10)
    net.run(600_000)
    audit.check_all()
    assert trunk.cells_corrupted > 0
    assert len(net.host("h1").delivered) == 10
    recovered = sum(
        r.credits_recovered
        for s in net.switches.values() for c in s.cards
        for r in c.upstream.values()
    )
    assert recovered > 0


def test_resync_corrects_a_balance_downward_and_upward():
    """A resync reply may lower a balance to zero (after duplicated
    credits inflated it) as well as raise it; the request bit follows
    both ways, between two ticks."""
    net = grid_net(credit_allocation=2, hosts=2)
    audit = MaskAudit(net)
    circuit = net.setup_circuit("h0", "h1")
    vc = circuit.vc
    s0 = net.switch("s0")
    card, entry = in_card_and_entry(s0, vc)
    out = entry.out_port
    neighbor = s0.neighbor(out)[0]
    # Stop the next switch from forwarding: its buffers fill, s0's
    # balance runs dry with cells still queued.
    next_switch = net.switches[neighbor]
    next_card, next_entry = in_card_and_entry(next_switch, vc)
    far = next_switch.neighbor(next_entry.out_port)[0]
    net.link_between(str(neighbor), str(far)).fail()
    send(net, circuit, "h0", "h1", cells=8)
    net.run(200)
    upstream = s0.cards[out].upstream[vc]
    assert upstream.balance == 0 and vc in card.vc_queues.queued_vcs(out)
    audit.check_all()
    assert not s0.crossbar.want & (1 << out)
    port = s0.ports[out]

    s0.on_cell(port, Cell(vc=vc, kind=CellKind.CREDIT, payload=1))  # duplicate
    audit.check_all()
    assert s0.crossbar.want & (1 << out)

    sent = upstream.cells_sent
    s0.on_cell(port, Cell(
        vc=vc, kind=CellKind.CREDIT, payload=ResyncReply(vc, sent, sent - 2),
    ))
    assert upstream.balance == 0 and upstream.excess_credits == 1
    audit.check_all()
    assert not s0.crossbar.want & (1 << out)

    s0.on_cell(port, Cell(
        vc=vc, kind=CellKind.CREDIT, payload=ResyncReply(vc, sent, sent - 1),
    ))
    assert upstream.balance == 1
    audit.check_all()
    assert s0.crossbar.want & (1 << out)
    net.run(2_000)
    audit.check_all()


def reentered_circuit(switch_ref):
    """A circuit h0 -> h1 whose cells wait, credit-starved, on their
    original input card of ``switch_ref`` while a repeated setup (the
    circuit was rerouted upstream and comes back in through another
    port) has re-installed it on a second card for the same output."""
    net = grid_net(credit_allocation=2, hosts=2, enable_local_reroute=True)
    audit = MaskAudit(net)
    vc = net.setup_circuit("h0", "h1").vc
    switch = net.switch(switch_ref)
    old_card, entry = in_card_and_entry(switch, vc)
    out = entry.out_port
    out_link = net.link_between(
        switch_ref, str(switch.neighbor(out)[0])
    )
    out_link.drop_filter = lambda cell: cell.kind is CellKind.CREDIT
    net.host("h0").send_raw_cells(vc, 8)
    net.run(500)
    assert switch.cards[out].upstream[vc].balance == 0
    assert vc in old_card.vc_queues.queued_vcs(out)
    new_in = next(
        c.index for c in switch.cards
        if c.index not in (old_card.index, out) and c.port.connected
    )
    switch.install_circuit(vc, new_in, out, entry.request)
    assert switch._vc_in_port[vc] == new_in
    audit.check_all()
    return net, audit, switch, old_card, new_in, out, vc, out_link


def credit(switch, out, vc, amount=1):
    switch.on_cell(
        switch.ports[out], Cell(vc=vc, kind=CellKind.CREDIT, payload=amount)
    )


def test_credit_reaches_every_card_holding_the_circuit():
    """Both cards draw on the one credit balance of the output: a credit
    readies both, spending it silences both."""
    net, audit, s1, old_card, new_in, out, vc, link = reentered_circuit("s1")
    s1.on_cell(s1.ports[new_in], Cell(vc=vc))  # the new path delivers too
    audit.check_all()
    assert s1.crossbar.want == 0
    credit(s1, out, vc)
    audit.check_all()
    assert s1.crossbar.cols[out] == (1 << old_card.index) | (1 << new_in)
    forwarded = s1.stats.cells_forwarded
    net.run(50)
    audit.check_all()
    assert s1.stats.cells_forwarded == forwarded + 1
    assert s1.crossbar.want == 0 and s1._queued > 0
    link.drop_filter = None
    credit(s1, out, vc, 2)
    net.run(500)
    audit.check_all()
    assert s1._queued == 0


@pytest.mark.parametrize("release", ["remove_circuit", "page_out"])
@pytest.mark.parametrize("install", ["install_circuit"])
def test_release_silences_the_other_card_and_reinstall_revives_it(
    release, install
):
    """Releasing the circuit drops the output's credit state, so cells
    stranded on the old card lose their request with it; a later setup
    creates fresh credit state and they are sendable again."""
    net, audit, s1, old_card, new_in, out, vc, link = reentered_circuit("s1")
    request = in_card_and_entry(s1, vc)[1].request
    credit(s1, out, vc)
    assert s1.crossbar.rows[old_card.index] == 1 << out
    getattr(s1, release)(vc)
    audit.check_all()
    assert s1.crossbar.want == 0 and s1._queued > 0  # stranded, as before masks
    net.run(200)
    audit.check_all()
    link.drop_filter = None
    getattr(s1, install)(vc, new_in, out, request)
    audit.check_all()
    assert s1.crossbar.rows[old_card.index] == 1 << out
    net.run(500)
    audit.check_all()
    assert s1._queued == 0


def test_reroute_silences_the_old_output_for_every_card():
    net, audit, s0, old_card, new_in, out, vc, _ = reentered_circuit("s0")
    credit(s0, out, vc)
    assert s0.crossbar.rows[old_card.index] == 1 << out
    assert s0._reroute_entry(*in_card_and_entry(s0, vc))
    audit.check_all()
    assert not s0.crossbar.want & (1 << out)
    net.run(200)
    audit.check_all()


@pytest.mark.parametrize("release", ["remove_circuit", "page_out"])
def test_release_after_reinstall_on_another_output(release):
    """A repeated setup may point the circuit at a new output while
    cells still wait for the old one; releasing the circuit drains both
    groups and must drop both request bits."""
    net = grid_net(credit_allocation=2, hosts=2)
    audit = MaskAudit(net)
    circuit = net.setup_circuit("h0", "h1")
    vc = circuit.vc
    s0 = net.switch("s0")
    card, entry = in_card_and_entry(s0, vc)
    out = entry.out_port
    net.link_between("s0", "s1").drop_filter = (
        lambda cell: cell.kind is CellKind.CREDIT
    )
    send(net, circuit, "h0", "h1", cells=8)
    net.run(500)
    assert vc in card.vc_queues.queued_vcs(out)
    s0.on_cell(s0.ports[out], Cell(vc=vc, kind=CellKind.CREDIT, payload=1))
    assert s0.crossbar.rows[card.index] == 1 << out
    other = next(
        c.index for c in s0.cards
        if c.index not in (card.index, out) and c.port.connected
    )
    s0.install_circuit(vc, card.index, other, entry.request)
    audit.check_all()
    getattr(s0, release)(vc)
    audit.check_all()
    assert s0.crossbar.rows[card.index] == 0 and s0._queued == 0
    net.run(200)
    audit.check_all()


def test_reroute_after_reinstall_drops_the_stranded_request():
    """Three ways out of s1 (h1's switch): cells wait for a trunk, a
    repeated setup points the circuit somewhere else, and a local
    reroute then moves it to the host port and carries *all* queued
    cells along -- the trunk's request bit must go."""
    net = grid_net(credit_allocation=2, hosts=2, enable_local_reroute=True)
    audit = MaskAudit(net)
    vc = net.setup_circuit("h0", "h1").vc
    s1 = net.switch("s1")
    card, entry = in_card_and_entry(s1, vc)
    host_port = entry.out_port
    trunk = next(
        c.index for c in s1.cards
        if c.port.connected and c.index not in (card.index, host_port)
    )
    # No circuit beyond the trunk: the neighbour holds the cells and
    # returns no credit, so the third cell onward waits here.
    s1.install_circuit(vc, card.index, trunk, entry.request)
    net.host("h0").send_raw_cells(vc, 6)
    net.run(500)
    assert s1.cards[trunk].upstream[vc].balance == 0
    assert vc in card.vc_queues.queued_vcs(trunk)
    credit(s1, trunk, vc)
    assert s1.crossbar.rows[card.index] == 1 << trunk
    s1.install_circuit(vc, card.index, card.index, entry.request)
    audit.check_all()
    assert s1._reroute_entry(*in_card_and_entry(s1, vc))
    assert entry.out_port == host_port
    audit.check_all()
    assert s1.crossbar.rows[card.index] == 1 << host_port
    assert card.vc_queues.queued_vcs(trunk) == []
    net.run(500)
    audit.check_all()
    assert s1._queued == 0


def test_reservations_share_ports_with_best_effort_load():
    """Pre-matched inputs and outputs are masked out of the best-effort
    request rows; the reference sees the same thing."""
    net = grid_net(credit_allocation=4)
    audit = MaskAudit(net)
    reserved, outcome = net.reserve_bandwidth("h0", "h3", 8)
    best_effort = net.setup_circuit("h0", "h3")
    crossing = net.setup_circuit("h1", "h3")
    net.run(2_000)
    net.host("h0").send_raw_cells(reserved.vc, 60)
    send(net, best_effort, "h0", "h3", cells=10, copies=5)
    send(net, crossing, "h1", "h3", cells=10, copies=5)
    net.run(600_000)
    audit.check_all()
    assert net.host("h3").cells_received >= 60 + 100
    assert sum(s.stats.guaranteed_forwarded for s in net.switches.values()) > 0


def test_radix_above_sixteen():
    """Request bits 16 and up: the masks are not 16-bit tables."""
    topo = Topology()
    topo.add_switch(0, ports=24)
    n_hosts = 20
    for h in range(n_hosts):
        topo.add_host(h)
        topo.connect(f"h{h}", "s0", port_a=0, bps=622_000_000)
    net = booted(topo, 5, n_ports=24, credit_allocation=4)
    audit = MaskAudit(net)
    sink = f"h{n_hosts - 1}"
    circuits = [
        (net.setup_circuit(f"h{h}", sink), f"h{h}") for h in (0, 1, 16, 17, 18)
    ]
    back = net.setup_circuit(sink, "h17")
    for circuit, src in circuits:
        send(net, circuit, src, sink, cells=10, copies=3)
    send(net, back, sink, "h17", cells=10, copies=3)
    net.run(400_000)
    audit.check_all()
    assert audit.wide_bits_seen
    assert len(net.host(sink).delivered) == 15
    assert len(net.host("h17").delivered) == 3


def test_switch_wider_than_the_masks_is_rejected():
    topo = Topology()
    topo.add_switch(0, ports=65)
    # The kernel's own radix check fires while the switch is building
    # the matcher it hands its Crossbar.
    with pytest.raises(ValueError, match="at most 64 ports, got 65"):
        Network(topo, seed=1)


# ======================================================================
# random action sequences
# ======================================================================
def duplicate_credit(net, circuit, n):
    """One more credit for ``circuit`` on every card that sends it on."""
    for switch in net.switches.values():
        for card in switch.cards:
            if circuit.vc in card.upstream:
                switch.on_cell(card.port, Cell(
                    vc=circuit.vc, kind=CellKind.CREDIT, payload=1,
                ))


def reinstall(net, circuit, n):
    """A repeated setup arriving on another port / leaving by another
    port than the one the circuit is installed on."""
    for switch in net.switches.values():
        if circuit.vc in switch._vc_in_port:
            card, entry = in_card_and_entry(switch, circuit.vc)
            if entry is not None:
                wired = [c.index for c in switch.cards if c.port.connected]
                switch.install_circuit(
                    circuit.vc, wired[n % len(wired)],
                    wired[n // 3 % len(wired)], entry.request,
                )
            break


@settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    flow_control=st.sampled_from(["credits", "drop"]),
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(
        st.tuples(
            st.sampled_from(ACTIONS + ("duplicate_credit", "reinstall")),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=8, max_size=24,
    ),
)
def test_random_control_actions(flow_control, seed, actions):
    """:func:`repro.conform.oracle.play`'s steps and two of this
    file's own, the masks audited after each."""
    net = grid_net(
        seed=seed, flow_control=flow_control, credit_allocation=3,
        enable_paging=True, paging_idle_us=2_000.0,
        enable_local_reroute=True, resync_interval_us=3_000.0,
    )
    audit = MaskAudit(net)
    trunks = [("s0", "s1"), ("s0", "s2"), ("s1", "s3"), ("s2", "s3")]
    play(
        net, actions, links=[net.link_between(*trunk) for trunk in trunks],
        crashable=["s1", "s2"], after=audit.check_all,
        words={"duplicate_credit": duplicate_credit, "reinstall": reinstall},
    )
    net.run(6_000)
    audit.check_all()
