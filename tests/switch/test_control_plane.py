"""The control plane both switch generations share: port monitors and
the node-local link queries on ``Node``, reconfiguration and the epoch's
routes on ``SwitchNode``, the operator verbs on ``Installation``."""

from repro._types import switch_id
from repro.core.reconfig.skeptic import LinkVerdict
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.an1 import An1Network
from tests.conftest import (
    converged_line,
    fast_an1_config,
    fast_host_config,
    fast_switch_config,
)


def ring_with_hosts():
    topo = Topology.ring(4)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", "s2", port_a=0)
    return topo


class TestCrossGeneration:
    def test_an1_and_an2_agree_port_for_port(self):
        """One topology, one seed: both generations converge on the
        cabling, and every switch sees the same working neighbours on
        the same ports whichever data plane it runs."""
        an2 = Network(
            ring_with_hosts(),
            seed=4,
            switch_config=fast_switch_config(),
            host_config=fast_host_config(),
        )
        an1 = An1Network(ring_with_hosts(), seed=4, config=fast_an1_config())
        for net in (an2, an1):
            net.start()
            net.run_until_converged(timeout_us=500_000)
        assert an2.converged_view() == an1.converged_view()
        assert an2.converged_view() == an2.topology.view()
        for node_id, an2_switch in an2.switches.items():
            an1_switch = an1.switches[node_id]
            assert an2_switch.reconfig_ports() == an1_switch.reconfig_ports()
            assert an2_switch.local_edges() == an1_switch.local_edges()
            for index in an2_switch.monitors:
                assert an2_switch.working_neighbor(
                    index
                ) == an1_switch.working_neighbor(index)


class TestNodeQueries:
    def test_dead_port_leaves_the_working_edges(self):
        net = converged_line(3)
        s0 = net.switch("s0")
        port = s0.port_facing(switch_id(1))
        edge = s0.edge_on_port(port)
        assert edge in s0.local_edges()
        assert port in s0.reconfig_ports()
        net.fail_link("s0", "s1")
        net.run_until(
            lambda: s0.monitors[port].verdict is LinkVerdict.DEAD,
            timeout_us=50_000.0,
            check_interval_us=100.0,
        )
        assert edge not in s0.local_edges()
        assert port not in s0.reconfig_ports()
        assert s0.working_neighbor(port) is None
        assert s0.port_facing(switch_id(1)) is None
        # The dead cable can still be named: reroute must avoid it.
        assert s0.neighbor(port)[0] == switch_id(1)
        assert s0.edge_on_port(port) == edge

    def test_hosts_vouch_for_their_links_too(self, small_net):
        h0 = small_net.host("h0")
        (edge,) = h0.local_edges()
        s0 = small_net.switch("s0")
        assert edge in s0.local_edges()
        assert h0.port_facing(switch_id(0)) == h0.active_port_index
