"""Tests for multicast virtual circuits."""

import pytest

from repro._types import host_id, switch_id
from repro.core.routing.multicast import FanoutToken, MulticastSetupRequest
from repro.core.routing.signaling import TeardownRequest
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config


def star_hosts_net(seed=3):
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


class TestFanoutToken:
    def test_drains_once(self):
        token = FanoutToken(remaining=3)
        assert not token.branch_departed()
        assert not token.branch_departed()
        assert token.branch_departed()
        with pytest.raises(ValueError):
            token.branch_departed()

    def test_request_validation(self):
        with pytest.raises(ValueError):
            MulticastSetupRequest(
                vc=1, source=host_id(0), destinations=frozenset()
            )


class TestSetup:
    def test_all_members_learn_circuit(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        for member in ("h1", "h2", "h3"):
            assert circuit.vc in net.host(member).incoming_circuits
        assert circuit.group == frozenset(
            {host_id(1), host_id(2), host_id(3)}
        )

    def test_tree_has_fanout_entry(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        fanouts = 0
        for switch in net.switches.values():
            in_port = switch._vc_in_port.get(circuit.vc)
            if in_port is None:
                continue
            entry = switch.cards[in_port].routing_table.lookup(circuit.vc)
            if entry.is_multicast:
                fanouts += 1
        assert fanouts >= 1  # s0 must branch toward {s1} and {s2, s3}

    def test_validation(self):
        net = star_hosts_net()
        with pytest.raises(ValueError):
            net.setup_multicast("h0", [])
        with pytest.raises(ValueError):
            net.setup_multicast("h0", ["h0", "h1"])

    def test_partial_group_with_unknown_member(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h42"], wait=False)
        net.run(100_000)
        # The reachable member joins; somewhere a setup failure was
        # recorded for the phantom.
        assert circuit.vc in net.host("h1").incoming_circuits
        failures = sum(
            s.signaling.setups_failed for s in net.switches.values()
        )
        assert failures >= 1


class TestDelivery:
    def test_every_member_receives_every_packet(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        for index in range(5):
            net.host("h0").send_packet(
                circuit.vc,
                Packet(
                    source=host_id(0),
                    destination=host_id(1),
                    payload=bytes([index]) * 100,
                ),
            )
        net.run(400_000)
        for member in ("h1", "h2", "h3"):
            delivered = net.host(member).delivered
            assert len(delivered) == 5
            assert sorted(p.payload[0] for p in delivered) == [0, 1, 2, 3, 4]
        assert net.total_cells_dropped() == 0

    def test_credit_conservation_with_fanout(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=48 * 30),
        )
        net.run(400_000)
        for switch in net.switches.values():
            for card in switch.cards:
                for upstream in card.upstream.values():
                    assert upstream.balance == upstream.allocation
                for downstream in card.downstream.values():
                    assert downstream.occupied == 0

    def test_unicast_traffic_unaffected_by_multicast(self):
        net = star_hosts_net()
        mc = net.setup_multicast("h0", ["h1", "h2"])
        uc = net.setup_circuit("h3", "h1")
        net.host("h0").send_packet(
            mc.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
        net.host("h3").send_packet(
            uc.vc,
            Packet(source=host_id(3), destination=host_id(1), size=480),
        )
        net.run(300_000)
        assert len(net.host("h1").delivered) == 2
        assert len(net.host("h2").delivered) == 1


def _vc_state(net, vc):
    """Every (switch, what) that still holds state for ``vc``."""
    held = []
    for name, switch in net.switches.items():
        if vc in switch._vc_in_port:
            held.append((str(name), "in_port"))
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


class TestTeardown:
    def test_teardown_releases_every_fanout_branch(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        vc = circuit.vc
        branches = {}
        for name, switch in net.switches.items():
            in_port = switch._vc_in_port.get(vc)
            if in_port is not None:
                entry = switch.cards[in_port].routing_table.lookup(vc)
                branches[str(name)] = sorted(
                    entry.out_ports or (entry.out_port,)
                )
        assert any(len(ports) > 1 for ports in branches.values())
        sent = _record_teardowns(net)
        net.host("h0").close_circuit(vc)
        net.run(100_000)
        assert _vc_state(net, vc) == []
        for member in ("h1", "h2", "h3"):
            assert vc not in net.host(member).incoming_circuits
        # One request per tree edge, so each member hears it once.
        assert {n: ports for n, ports in sent.items() if ports} == branches

    def test_unicast_teardown_sends_one_request_per_hop(self):
        net = star_hosts_net()
        circuit = net.setup_circuit("h0", "h3")
        vc = circuit.vc
        on_path = sorted(
            str(name) for name, s in net.switches.items() if vc in s._vc_in_port
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

    def test_remove_circuit_without_entry_names_no_port(self):
        net = star_hosts_net()
        s0 = net.switch("s0")
        assert s0.remove_circuit(999) == ()
        # In-port known but routing entry already gone: the agent forwards
        # on every returned port, so a placeholder like -1 would be sent on.
        s0._vc_in_port[998] = 0
        assert s0.remove_circuit(998) == ()


class TestInteractionGuards:
    def test_paging_skips_fanout_entries(self):
        net = star_hosts_net()
        circuit = net.setup_multicast("h0", ["h1", "h2", "h3"])
        net.run(20_000)
        s0 = net.switch("s0")
        if circuit.vc in s0._vc_in_port:
            assert not s0.page_out(circuit.vc)

    def test_reroute_counts_fanout_branch_broken(self):
        topo = Topology.grid(2, 2)
        for h in range(3):
            topo.add_host(h)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h1", "s1", port_a=0, bps=622_000_000)
        topo.connect("h2", "s2", port_a=0, bps=622_000_000)
        net = Network(
            topo,
            seed=9,
            switch_config=fast_switch_config(enable_local_reroute=True),
            host_config=fast_host_config(),
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_multicast("h0", ["h1", "h2"])
        # Find a switch with the fanout entry and kill one branch link.
        s0 = net.switch("s0")
        in_port = s0._vc_in_port[circuit.vc]
        entry = s0.cards[in_port].routing_table.lookup(circuit.vc)
        assert entry.is_multicast
        branch = sorted(entry.out_ports)[0]
        neighbor = s0.cards[branch].monitor.neighbor[0]
        net.fail_link("s0", str(neighbor))
        net.run_until(
            lambda: s0.stats.broken_circuits >= 1, timeout_us=100_000
        )
