"""Circuit setup signaling over real networks."""

import pytest

from repro._types import host_id, switch_id
from repro.core.routing.paths import RouteComputer
from repro.core.routing.signaling import SetupRequest, TeardownRequest
from repro.net.cell import Cell, CellKind
from repro.net.packet import Packet
from repro.obs.journey import JourneyContext
from repro.obs.trace import Tracer
from tests.conftest import converged_line, fast_host_config, fast_switch_config
from repro.net.network import Network
from repro.net.topology import Topology


def test_setup_installs_entries_hop_by_hop(small_net):
    circuit = small_net.setup_circuit("h0", "h1")
    for sid in ("s0", "s1", "s2"):
        switch = small_net.switch(sid)
        assert circuit.vc in switch.circuits
        in_port = switch.circuits[circuit.vc].in_port
        entry = switch.cards[in_port].routing_table.lookup(circuit.vc)
        assert entry is not None
        assert entry.request.destination == host_id(1)


def test_destination_host_learns_circuit(small_net):
    circuit = small_net.setup_circuit("h0", "h1")
    assert circuit.vc in small_net.host("h1").incoming_circuits


def test_cells_sent_right_after_setup_are_buffered_not_lost(small_net):
    """"Cells for the new virtual circuit may be sent immediately after
    the setup cell... they will be buffered until the routing table entry
    is filled in."""
    net = small_net
    circuit = net.setup_circuit("h0", "h1", wait=False)
    net.host("h0").send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), payload=b"races"),
    )
    net.run(100_000)
    delivered = net.host("h1").delivered
    assert len(delivered) == 1
    assert delivered[0].payload == b"races"


def test_teardown_removes_state(small_net):
    net = small_net
    circuit = net.setup_circuit("h0", "h1")
    net.host("h0").close_circuit(circuit.vc)
    net.run(50_000)
    for sid in ("s0", "s1", "s2"):
        switch = net.switch(sid)
        assert circuit.vc not in switch.circuits
    assert circuit.vc not in net.host("h1").incoming_circuits


def test_setup_toward_unknown_host_fails_cleanly(small_net):
    net = small_net
    request = SetupRequest(vc=999, source=host_id(0), destination=host_id(42))
    net.host("h0").active_port.send(
        Cell(vc=1, kind=CellKind.SIGNALING, payload=request)
    )
    net.run(20_000)
    assert net.switch("s0").signaling.setups_failed >= 1
    assert 999 not in net.switch("s0").circuits


def test_multiple_circuits_share_links_independently(small_net):
    net = small_net
    a = net.setup_circuit("h0", "h1")
    b = net.setup_circuit("h0", "h1")
    assert a.vc != b.vc
    net.host("h0").send_packet(
        a.vc, Packet(source=host_id(0), destination=host_id(1), payload=b"A" * 200)
    )
    net.host("h0").send_packet(
        b.vc, Packet(source=host_id(0), destination=host_id(1), payload=b"B" * 200)
    )
    net.run(100_000)
    payloads = sorted(p.payload[:1] for p in net.host("h1").delivered)
    assert payloads == [b"A", b"B"]


def test_reverse_circuit_works(small_net):
    net = small_net
    circuit = net.setup_circuit("h1", "h0")
    net.host("h1").send_packet(
        circuit.vc,
        Packet(source=host_id(1), destination=host_id(0), payload=b"back"),
    )
    net.run(100_000)
    assert [p.payload for p in net.host("h0").delivered] == [b"back"]


def test_setup_follows_updown_legal_route():
    """On a topology where the unrestricted shortest path is illegal,
    signaling must take the legal one."""
    topo = Topology()
    for i in range(5):
        topo.add_switch(i)
    # Tree rooted (by id tie-breaks) with a cross edge:
    topo.connect("s0", "s1")
    topo.connect("s0", "s2")
    topo.connect("s1", "s3")
    topo.connect("s2", "s4")
    topo.connect("s3", "s4")
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s3", port_a=0)
    topo.connect("h1", "s4", port_a=0)
    net = Network(topo, seed=5, switch_config=fast_switch_config())
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1", timeout_us=200_000)
    # Verify the installed path is legal w.r.t. the winning orientation.
    from repro.core.routing.reroute import installed_path

    path = installed_path(net, circuit.vc, host_id(0))
    assert path[0] == host_id(0) and path[-1] == host_id(1)
    switches = [n for n in path if n.is_switch]
    computer = net.switch("s0").route_computer()
    orientation = computer.orientation
    went_down = False
    for a, b in zip(switches, switches[1:]):
        edge = next(
            e
            for e in computer.view.edges
            if {e[0][0], e[1][0]} == {a, b}
        )
        if orientation.is_up_traversal(edge, a):
            assert not went_down, "down-then-up on installed path"
        else:
            went_down = True


def test_routing_bug_escapes_the_setup(small_net, monkeypatch):
    """Only a RoutingError means "no route": any other exception out of
    the route computer is a bug, and must not pass for a failed setup."""

    def broken(self, host, preferred_port=0):
        raise TypeError("broken attachment")

    monkeypatch.setattr(RouteComputer, "attachment", broken)
    with pytest.raises(TypeError, match="broken attachment"):
        small_net.setup_circuit("h0", "h1")


def corner_hosts_net(seed=3):
    """Four hosts on the corners of a 2x2 switch grid."""
    topo = Topology.grid(2, 2)
    for h in range(4):
        topo.add_host(h)
    for h, s in ((0, 0), (1, 1), (2, 2), (3, 3)):
        topo.connect(f"h{h}", f"s{s}", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def _vc_state(net, vc):
    """Every (switch, what) that still holds state for ``vc``."""
    held = []
    for name, switch in net.switches.items():
        if vc in switch.circuits:
            held.append((str(name), "record"))
        for card in switch.cards:
            if card.routing_table.lookup(vc) is not None:
                held.append((str(name), f"route@{card.index}"))
            for what in ("upstream", "downstream"):
                if vc in getattr(card, what):
                    held.append((str(name), f"{what}@{card.index}"))
    return held


def _record_teardowns(net):
    """Per-switch log of the ports each TeardownRequest was sent on."""
    sent = {str(name): [] for name in net.switches}
    for name, switch in net.switches.items():
        def send(port, message, log=sent[str(name)], real=switch.send_signaling):
            if isinstance(message, TeardownRequest):
                log.append(port)
            real(port, message)

        switch.send_signaling = send
    return sent


def test_unicast_teardown_sends_one_request_per_hop():
    net = corner_hosts_net()
    circuit = net.setup_circuit("h0", "h3")
    vc = circuit.vc
    on_path = sorted(
        str(name) for name, s in net.switches.items() if vc in s.circuits
    )
    assert len(on_path) == 3  # s0, one of s1/s2, s3
    sent = _record_teardowns(net)
    net.host("h0").close_circuit(vc)
    net.run(100_000)
    assert _vc_state(net, vc) == []
    assert vc not in net.host("h3").incoming_circuits
    assert {name: len(ports) for name, ports in sent.items() if ports} == {
        name: 1 for name in on_path
    }


def test_remove_circuit_without_entry_names_no_port():
    net = corner_hosts_net()
    s0 = net.switch("s0")
    assert s0.remove_circuit(999) is None
    # A cell that beat its setup is held by a record with no out port
    # yet: the agent forwards a teardown on the returned port, so none
    # is named, and the cell and its buffer go with the record: the
    # cell is counted as dropped, with a journey record saying why.
    port = s0.port_facing(host_id(0))
    tracer = Tracer()
    cell = Cell(vc=998)
    cell.trace_ctx = JourneyContext(tracer, cell.uid, 1, 998)
    s0.on_cell(s0.ports[port], cell)
    assert s0.holdings(998) == {("pending", port), ("pool", port)}
    dropped = s0.stats.cells_dropped
    assert s0.remove_circuit(998) is None
    assert s0.holdings(998) == set() and 998 not in s0.circuits
    assert s0.stats.cells_dropped == dropped + 1
    assert [(r.name, r.payload["reason"]) for r in tracer.records] == [
        ("drop", "closed")
    ]
