"""``local_edges()`` and ``reconfig_ports()`` are cached between verdict
and neighbour changes; the cached answers must always equal a fresh
recomputation, whatever the cables and switches do."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config

ACTIONS = ("fail_link", "restore_link", "crash_switch", "restore_switch")


def ring_with_hosts() -> Network:
    """s0..s3 in a ring, h0 on s0 and h1 on s2."""
    topo = Topology.ring(4)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s2", port_a=0, bps=622_000_000)
    return Network(
        topo,
        seed=3,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )


def uncached_local_edges(node):
    return {
        node.edge_on_port(index)
        for index in node.monitors
        if node.working_neighbor(index) is not None
    }


def uncached_reconfig_ports(switch):
    ports = []
    for index in switch.monitors:
        neighbor = switch.working_neighbor(index)
        if neighbor is not None and neighbor[0].is_switch:
            ports.append(index)
    return ports


def assert_caches_fresh(net: Network) -> None:
    for node in [*net.switches.values(), *net.hosts.values()]:
        edges = node.local_edges()
        assert isinstance(edges, frozenset)
        assert edges == uncached_local_edges(node), node.node_id
    for switch in net.switches.values():
        ports = switch.reconfig_ports()
        assert isinstance(ports, tuple)
        assert list(ports) == uncached_reconfig_ports(switch), switch.node_id


@settings(max_examples=12, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(ACTIONS),
            st.integers(min_value=0, max_value=5),
            st.sampled_from((300.0, 2_000.0, 8_000.0)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_cached_link_views_equal_a_recomputation(steps):
    net = ring_with_hosts()
    cables = sorted(net.links)
    switches = sorted(net.switches)
    net.start()
    # From before the first ack: neighbours are learned under a verdict
    # that stays WORKING.
    for _ in range(12):
        assert_caches_fresh(net)
        net.run(250.0)
    for action, which, settle_us in steps:
        if action in ("fail_link", "restore_link"):
            (a, _), (b, _) = cables[which % len(cables)]
            getattr(net, action)(a, b)
        else:
            getattr(net, action)(switches[which % len(switches)])
        assert_caches_fresh(net)
        # Check inside the settling time too, where verdicts change.
        for _ in range(4):
            net.run(settle_us / 4)
            assert_caches_fresh(net)
