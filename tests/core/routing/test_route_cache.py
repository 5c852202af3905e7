"""Tests for the epoch-keyed route cache.

The memo in :class:`UpDownOrientation` must be invisible to every
caller: identical paths with and without it (down to the replay digest;
the un-memoised answer comes from patching ``_cached`` to call
``compute`` directly), fresh list copies on hits, no caching of per-call
``blocked_edges`` queries, and eviction-by-epoch -- a reconfiguration
that agrees on another view installs a new orientation, so stale pre-cut
paths can never leak into the new epoch.  The switches of one
installation that agree on the same ``(view, initiator)`` share one
computer, and that sharing is just as invisible.
"""

from repro._types import switch_id
from repro.conform.digest import digest_scenario
from repro.core.reconfig.epoch import EpochTag
from repro.core.routing.paths import RouteComputer
from repro.core.routing.updown import UpDownOrientation
from repro.net.network import Network
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from repro.sim.random import derived_stream
from repro.switch.an1 import An1Network
from repro.switch.control import SwitchNode
from tests.conftest import fast_host_config, fast_switch_config


def uncached(self, kind, source, destination, compute):
    """``UpDownOrientation._cached`` without the memo."""
    return compute(source, destination)


_shared_init = SwitchNode.__init__


def unshared(self, *args, route_computers=None, **kwargs):
    """``SwitchNode.__init__`` with a private route computer map."""
    _shared_init(self, *args, **kwargs)


def random_orientation(seed=3, n=10):
    topo = Topology.random_connected(
        n, extra_edges=4, rng=derived_stream("test/route_cache", seed)
    )
    view = topo.view()
    return UpDownOrientation(view, view.switches()[0]), view


class TestMemo:
    def test_second_query_hits(self):
        orientation, view = random_orientation()
        a, b = view.switches()[0], view.switches()[-1]
        first = orientation.shortest_legal_path(a, b)
        assert orientation.cache_misses == 1
        assert orientation.cache_hits == 0
        second = orientation.shortest_legal_path(a, b)
        assert orientation.cache_hits == 1
        assert first == second

    def test_hits_return_fresh_copies(self):
        orientation, view = random_orientation()
        a, b = view.switches()[0], view.switches()[-1]
        orientation.shortest_legal_path(a, b)
        hit = orientation.shortest_legal_path(a, b)
        hit[0].clear()
        hit[1].clear()
        unharmed = orientation.shortest_legal_path(a, b)
        assert unharmed[0] and unharmed[0][0] == a

    def test_unreachable_answer_is_cached(self):
        topo = Topology()
        topo.add_switch(0)
        topo.add_switch(1)
        topo.connect("s0", "s1")
        topo.add_switch(2)  # isolated
        view = topo.view()
        orientation = UpDownOrientation(view, switch_id(0))
        assert orientation.shortest_legal_path(
            switch_id(0), switch_id(2)
        ) is None
        assert orientation.shortest_legal_path(
            switch_id(0), switch_id(2)
        ) is None
        assert orientation.cache_hits == 1

    def test_blocked_edges_queries_bypass_the_memo(self):
        orientation, view = random_orientation()
        a, b = view.switches()[0], view.switches()[-1]
        unblocked = orientation.shortest_legal_path(a, b)
        blocked_edge = frozenset([unblocked[1][0]])
        hits_before = orientation.cache_hits
        misses_before = orientation.cache_misses
        detour = orientation.next_hop(a, b, False, blocked_edge)
        assert orientation.cache_hits == hits_before
        assert orientation.cache_misses == misses_before
        if detour is not None:
            assert detour[1] != unblocked[1][0]
        # ...and the blocked answer must not have poisoned the memo.
        assert orientation.shortest_legal_path(a, b) == unblocked
        assert orientation.next_hop(a, b, False) == (
            unblocked[0][1], unblocked[1][0]
        )

    def test_disabled_cache_never_hits(self, monkeypatch):
        monkeypatch.setattr(UpDownOrientation, "_cached", uncached)
        orientation, view = random_orientation()
        a, b = view.switches()[0], view.switches()[-1]
        first = orientation.shortest_legal_path(a, b)
        second = orientation.shortest_legal_path(a, b)
        assert first == second
        assert orientation.cache_hits == 0
        assert orientation.cache_misses == 0

    def test_cached_equals_uncached_everywhere(self, monkeypatch):
        """Every query kind agrees with the cache off -- the memo is a
        pure memo."""
        orientation, view = random_orientation(seed=9, n=12)
        shadow, _ = random_orientation(seed=9, n=12)
        switches = view.switches()
        for a in switches:
            for b in switches:
                cached = orientation.shortest_legal_path(a, b)
                cached_free = orientation.shortest_unrestricted_path(a, b)
                with monkeypatch.context() as patch:
                    patch.setattr(UpDownOrientation, "_cached", uncached)
                    assert shadow.shortest_legal_path(a, b) == cached
                    assert (
                        shadow.shortest_unrestricted_path(a, b) == cached_free
                    )
        assert orientation.cache_misses > 0 and shadow.cache_misses == 0


class TestEpochEviction:
    def grid_net(self, seed=11):
        topo = Topology.grid(3, 3)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h1", "s8", port_a=0)
        net = Network(
            topo,
            seed=seed,
            switch_config=fast_switch_config(),
            host_config=fast_host_config(),
        )
        net.start()
        net.run_until(net.fully_reconfigured, timeout_us=500_000)
        return net

    def test_reconfiguration_installs_a_new_computer(self):
        """A new epoch means a new RouteComputer (hence an empty memo):
        cutting a trunk on the cached route must change the answer."""
        net = self.grid_net()
        switch = net.switch("s0")
        computer = switch.route_computer()
        assert computer is not None
        before = computer.switch_route(switch_id(0), switch_id(8))
        # Warm the memo, then cut the first trunk the route uses.
        again = computer.switch_route(switch_id(0), switch_id(8))
        assert again == before
        assert computer.orientation.cache_hits >= 1
        first_edge = before[1][0]
        (node_a, _), (node_b, _) = first_edge
        net.fail_link(node_a, node_b)
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        fresh = switch.route_computer()
        assert fresh is not None
        assert fresh is not computer, "reconfiguration must evict by epoch"
        assert fresh.epoch != computer.epoch
        after = fresh.switch_route(switch_id(0), switch_id(8))
        assert first_edge not in after[1], (
            "post-reconfiguration route still uses the severed cable"
        )

    def test_route_cache_gauges_exposed(self):
        net = self.grid_net()
        computer = net.switch("s0").route_computer()
        computer.switch_route(switch_id(0), switch_id(8))
        computer.switch_route(switch_id(0), switch_id(8))
        snapshot = net.registry.snapshot()
        gauges = snapshot["switch.s0.routing"]["gauges"]
        assert gauges["route_cache_misses"] >= 1
        assert gauges["route_cache_hits"] >= 1


def boot_fat_tree(seed=7):
    """A booted fat_tree(4) network, and the ``(view.edges, initiator)``
    key of every epoch its agents completed."""
    net = Network(
        fat_tree(4, hosts_per_edge=1).topology,
        seed=seed,
        switch_config=fast_switch_config(),
        host_config=fast_host_config(),
    )
    keys = set()
    for switch in net.switches.values():
        switch.reconfig.ready.subscribe(
            lambda value: keys.add((value[1].edges, value[0].initiator))
        )
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
    return net, keys


def installs(net):
    return sum(s.stats.route_installs_full for s in net.switches.values())


class TestSharing:
    def test_every_switch_routes_on_one_computer(self):
        net, keys = boot_fat_tree()
        computers = {id(s.route_computer()) for s in net.switches.values()}
        assert len(computers) == 1
        assert None not in {s.route_computer() for s in net.switches.values()}
        assert len(keys) < len(net.switches)
        assert installs(net) == len(keys)

    def test_installations_share_nothing(self):
        first, first_keys = boot_fat_tree()
        second, second_keys = boot_fat_tree()
        assert first.route_computers is not second.route_computers
        ours = {id(c) for c in first.route_computers.values()}
        theirs = {id(c) for c in second.route_computers.values()}
        assert ours and not ours & theirs
        assert installs(first) == installs(second) == len(first_keys)
        assert first_keys == second_keys

    def test_a_cut_evicts_the_pre_cut_view(self):
        net, _ = boot_fat_tree()
        pre_cut = net.converged_view().edges
        assert pre_cut in {edges for edges, _ in net.route_computers.keys()}
        net.fail_link("s0", "s4")
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        post_cut = net.converged_view().edges
        assert post_cut != pre_cut
        held = {edges for edges, _ in net.route_computers.keys()}
        assert held == {post_cut}

    def test_disconnected_view_is_neither_routed_nor_cached(self):
        net, _ = boot_fat_tree()
        before = installs(net)
        # Two switch pairs with no cable between them: no orientation
        # reaches both from either root.
        topo = Topology()
        for number in range(4):
            topo.add_switch(number)
        topo.connect("s0", "s1")
        topo.connect("s2", "s3")
        view = topo.view()
        tag = EpochTag(99, switch_id(0))
        for switch in net.switches.values():
            switch._on_topology_ready((tag, view))
        assert {s.route_computer() for s in net.switches.values()} == {None}
        assert (view.edges, tag.initiator) not in net.route_computers
        assert installs(net) == before

    def test_an1_switches_share_their_computer(self):
        topo = Topology.ring(4)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0")
        topo.connect("h1", "s2")
        net = An1Network(topo, seed=3)
        net.start()
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        computers = {id(s._route_computer) for s in net.switches.values()}
        assert len(computers) == 1
        assert list(net.route_computers.values())[0].root == (
            net.reconfig_root()
        )

    def test_digest_identical_with_private_computers(self, monkeypatch):
        shared = digest_scenario(5, duration_us=40_000.0)
        monkeypatch.setattr(SwitchNode, "__init__", unshared)
        net = Network(Topology.line(2))
        assert net.switch("s0")._route_computers is not net.route_computers
        private = digest_scenario(5, duration_us=40_000.0)
        assert shared == private, (
            "sharing route computers changed simulated behavior"
        )


class TestDigestNeutrality:
    def test_digest_identical_with_cache_on_and_off(self, monkeypatch):
        with_cache = digest_scenario(5, duration_us=40_000.0)
        monkeypatch.setattr(UpDownOrientation, "_cached", uncached)
        without_cache = digest_scenario(5, duration_us=40_000.0)
        assert with_cache == without_cache, (
            "the route cache changed simulated behavior; it may only "
            "change how often the BFS runs"
        )
