"""Tests for the epoch-keyed route cache.

The memo in :class:`UpDownOrientation` must be invisible to every
caller: identical paths with and without it (down to the replay digest;
the un-memoised answer comes from patching ``_cached`` to call
``compute`` directly), fresh list copies on hits, no caching of per-call
``blocked_edges`` queries, and eviction-by-epoch -- a reconfiguration
installs a new orientation, so stale pre-cut paths can never leak into
the new epoch.
"""

from repro._types import switch_id
from repro.conform.digest import digest_scenario
from repro.core.routing.paths import RouteComputer
from repro.core.routing.updown import UpDownOrientation
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.random import derived_stream
from tests.conftest import fast_host_config, fast_switch_config


def uncached(self, kind, source, destination, compute):
    """``UpDownOrientation._cached`` without the memo."""
    return compute(source, destination)


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
        detour = orientation.shortest_legal_path(
            a, b, blocked_edges=blocked_edge
        )
        assert orientation.cache_hits == hits_before
        assert orientation.cache_misses == misses_before
        if detour is not None:
            assert unblocked[1][0] not in detour[1]
        # ...and the blocked answer must not have poisoned the memo.
        assert orientation.shortest_legal_path(a, b) == unblocked

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


class TestDigestNeutrality:
    def test_digest_identical_with_cache_on_and_off(self, monkeypatch):
        with_cache = digest_scenario(5, duration_us=40_000.0)
        monkeypatch.setattr(UpDownOrientation, "_cached", uncached)
        without_cache = digest_scenario(5, duration_us=40_000.0)
        assert with_cache == without_cache, (
            "the route cache changed simulated behavior; it may only "
            "change how often the BFS runs"
        )
