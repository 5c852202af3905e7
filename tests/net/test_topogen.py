"""Tests for the structured datacenter topology generators."""

import pytest

from repro._types import switch_id
from repro.core.routing.updown import UpDownOrientation
from repro.net.topogen import (
    TIER_AGGREGATION,
    TIER_CORE,
    TIER_EDGE,
    TIER_LEAF,
    TIER_SPINE,
    fat_tree,
    spine_leaf,
)
from repro.net.topology import TopologyError


def switch_connected(view):
    """BFS over switch-switch edges only."""
    adjacency = {}
    for (na, _), (nb, _) in view.edges:
        if na.is_switch and nb.is_switch:
            adjacency.setdefault(na, []).append(nb)
            adjacency.setdefault(nb, []).append(na)
    switches = set(view.switches())
    if not switches:
        return True
    start = next(iter(sorted(switches)))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency.get(node, []):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen == switches


class TestFatTree:
    def test_counts_k4(self):
        st = fat_tree(4)
        # (k/2)^2 = 4 core, 4 pods x (2 agg + 2 edge) = 16 pod switches.
        assert len(st.topology.switches()) == 20
        assert len(st.switches_in_tier(TIER_CORE)) == 4
        assert len(st.switches_in_tier(TIER_AGGREGATION)) == 8
        assert len(st.switches_in_tier(TIER_EDGE)) == 8
        assert len({p for p in st.pod.values() if p is not None}) == 4
        # k^2/4 edge-agg cables per pod x k pods + k^2/4 x k/2... total:
        # each pod has (k/2)^2 edge-agg cables; each agg has k/2 core
        # uplinks.  k=4: 4x4 + 8x2 = 32.
        assert len(st.topology.switch_edges()) == 32

    def test_every_switch_has_k_ports(self):
        st = fat_tree(4)
        for switch in st.topology.switches():
            assert st.topology.ports_of(switch) == 4

    def test_datacenter_scale_counts(self):
        st = fat_tree(32)
        assert len(st.topology.switches()) == 5 * 32 * 32 // 4  # 1280
        assert len(st.topology.switch_edges()) == 16384

    def test_connected_and_orientable(self):
        st = fat_tree(8)
        view = st.view()
        assert switch_connected(view)
        orientation = UpDownOrientation(view, st.default_root())
        # On a 3-tier Clos rooted at a core switch every switch is within
        # 4 hops of the root.
        assert max(orientation.levels.values()) <= 4

    def test_default_root_is_top_tier(self):
        st = fat_tree(4)
        assert st.tier[st.default_root()] == TIER_CORE
        assert st.default_root() == st.switches_in_tier(TIER_CORE)[-1]

    def test_hosts_attach_to_edge_switches(self):
        st = fat_tree(4, hosts_per_edge=2)
        assert len(st.topology.hosts()) == 4 * 2 * 2  # k^3/4 = 16
        for edge_switch, hosts in st.hosts_of.items():
            assert st.tier[edge_switch] == TIER_EDGE
            assert len(hosts) == 2

    def test_pod_membership(self):
        st = fat_tree(4)
        for p in range(4):
            members = [s for s, pod in st.pod.items() if pod == p]
            assert len(members) == 4  # k/2 agg + k/2 edge
            tiers = {st.tier[s] for s in members}
            assert tiers == {TIER_AGGREGATION, TIER_EDGE}

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_odd_or_tiny_k_rejected(self, k):
        with pytest.raises(TopologyError):
            fat_tree(k)

    def test_too_many_hosts_rejected(self):
        with pytest.raises(TopologyError):
            fat_tree(4, hosts_per_edge=3)

    def test_deterministic(self):
        assert fat_tree(4).view() == fat_tree(4).view()


class TestSpineLeaf:
    def test_full_bipartite(self):
        st = spine_leaf(4, 8)
        assert len(st.switches_in_tier(TIER_SPINE)) == 4
        assert len(st.switches_in_tier(TIER_LEAF)) == 8
        assert len(st.topology.switch_edges()) == 32

    def test_hosts_and_root(self):
        st = spine_leaf(2, 4, hosts_per_leaf=3)
        assert len(st.topology.hosts()) == 12
        assert st.tier[st.default_root()] == TIER_SPINE

    def test_orientation_levels_are_tiered(self):
        st = spine_leaf(3, 6)
        orientation = UpDownOrientation(st.view(), st.default_root())
        # Root spine at 0, every leaf at 1, other spines at 2.
        for leaf in st.switches_in_tier(TIER_LEAF):
            assert orientation.levels[leaf] == 1
        for spine in st.switches_in_tier(TIER_SPINE):
            assert orientation.levels[spine] in (0, 2)

    def test_bad_params_rejected(self):
        with pytest.raises(TopologyError):
            spine_leaf(0, 4)


class TestDownstreamIntegration:
    def test_routes_exist_between_far_pods(self):
        from repro.core.routing.paths import RouteComputer

        st = fat_tree(4, hosts_per_edge=1)
        computer = RouteComputer(st.view(), st.default_root())
        hosts = st.topology.hosts()
        first, _ = computer.attachment(hosts[0])
        last, _ = computer.attachment(hosts[-1])
        nodes, _ = computer.orientation.shortest_legal_path(first, last)
        # h0 and h15 sit in pods 0 and 3: the route must climb to core.
        assert any(st.tier.get(node) == TIER_CORE for node in nodes)

    def test_generated_switch_ids_are_plain(self):
        st = fat_tree(4)
        assert switch_id(0) in st.tier
