"""Structured datacenter-scale topology generators.

The paper's installations are ad-hoc LANs (Figure 1: a redundant switch
core with dual-homed hosts), but the ROADMAP north-star is thousands of
switches -- and at that scale real networks are *structured*: multi-stage
Clos fabrics whose regularity is what makes routing, expansion, and
failure analysis tractable ("SCALABLE INTERNETWORKING", PAPERS.md).
This module generates the two standard shapes:

- :func:`fat_tree` -- the k-ary fat-tree: ``k`` pods of ``k/2`` edge and
  ``k/2`` aggregation switches over ``(k/2)^2`` core switches
  (``5k^2/4`` switches total; k=32 is 1280 switches),
- :func:`spine_leaf` -- the 2-tier leaf-spine fabric: every leaf cabled
  to every spine.

Every generator returns a :class:`StructuredTopology`: the plain
:class:`~repro.net.topology.Topology` (so everything downstream --
reconfiguration, routing, simulation -- works unchanged) plus the
structural metadata (per-switch tier and pod labels) that structured
algorithms (per-pod sharding, tier-aware root selection, expansion
planning) need and an ad-hoc topology cannot provide.

Switch numbering is deterministic and tier-contiguous (core/spine block
first, then pod by pod), so a given parameterization always produces the
identical ``Topology`` -- the same determinism contract as every other
generator in :mod:`repro.net.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._types import NodeId
from repro.net.topology import Topology, TopologyError, TopologyView

#: Tier labels used by the generators.
TIER_CORE = "core"
TIER_AGGREGATION = "aggregation"
TIER_EDGE = "edge"
TIER_SPINE = "spine"
TIER_LEAF = "leaf"


@dataclass
class StructuredTopology:
    """A generated topology plus its structural metadata.

    ``tier`` maps every switch to its stage label and ``pod`` maps it to
    its pod index (``None`` for pod-less tiers: core and spine).  Hosts,
    when generated, appear in ``hosts_of`` keyed by their edge/leaf
    switch.
    """

    name: str
    params: Dict[str, int]
    topology: Topology
    tier: Dict[NodeId, str] = field(default_factory=dict)
    pod: Dict[NodeId, Optional[int]] = field(default_factory=dict)
    hosts_of: Dict[NodeId, List[NodeId]] = field(default_factory=dict)

    def view(self) -> TopologyView:
        return self.topology.view()

    def switches_in_tier(self, tier: str) -> List[NodeId]:
        return sorted(s for s, t in self.tier.items() if t == tier)

    def default_root(self) -> NodeId:
        """The deterministic up*/down* root for this fabric.

        The paper breaks level ties toward the higher-numbered switch;
        rooting at the *highest-numbered top-tier switch* keeps the
        orientation's up direction aligned with the physical up direction
        of the fabric (toward core/spine), which is what gives up*/down*
        full path diversity on a Clos.
        """
        top = self.switches_in_tier(
            TIER_CORE if TIER_CORE in self.tier.values() else TIER_SPINE
        )
        if not top:
            top = self.topology.switches()
        return top[-1]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StructuredTopology {self.name} {self.params} "
            f"switches={len(self.tier)}>"
        )


def fat_tree(
    k: int,
    hosts_per_edge: int = 0,
    length_km: float = 0.1,
    host_length_km: float = 0.05,
) -> StructuredTopology:
    """The k-ary fat-tree (Al-Fares et al. numbering, AN2 cabling rules).

    ``k`` even, >= 2: ``(k/2)^2`` core switches, ``k`` pods each holding
    ``k/2`` aggregation and ``k/2`` edge switches.  Edge switch ``j`` of a
    pod cables to every aggregation switch of its pod; aggregation switch
    ``j`` cables to core group ``j`` (core switches ``j*k/2 ..
    (j+1)*k/2-1``).  Every switch is built with exactly ``k`` ports, the
    defining fat-tree property.

    ``hosts_per_edge`` (up to ``k/2``) attaches that many single-homed
    hosts to every edge switch -- at full fan-out the fabric serves
    ``k^3/4`` hosts.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat_tree needs an even k >= 2, got {k}")
    half = k // 2
    if hosts_per_edge > half:
        raise TopologyError(
            f"fat_tree(k={k}) edge switches have {half} host-facing "
            f"ports, cannot attach {hosts_per_edge} hosts"
        )
    topo = Topology()
    tier: Dict[NodeId, str] = {}
    pod: Dict[NodeId, Optional[int]] = {}
    n_core = half * half
    core = [topo.add_switch(i, ports=k) for i in range(n_core)]
    for s in core:
        tier[s] = TIER_CORE
        pod[s] = None
    aggs: Dict[int, List[NodeId]] = {}
    edges: Dict[int, List[NodeId]] = {}
    for p in range(k):
        base = n_core + p * k
        aggs[p] = [topo.add_switch(base + j, ports=k) for j in range(half)]
        edges[p] = [
            topo.add_switch(base + half + j, ports=k) for j in range(half)
        ]
        for s in aggs[p]:
            tier[s] = TIER_AGGREGATION
            pod[s] = p
        for s in edges[p]:
            tier[s] = TIER_EDGE
            pod[s] = p
    for p in range(k):
        for edge_switch in edges[p]:
            for agg_switch in aggs[p]:
                topo.connect(edge_switch, agg_switch, length_km=length_km)
        for j, agg_switch in enumerate(aggs[p]):
            for c in range(j * half, (j + 1) * half):
                topo.connect(agg_switch, core[c], length_km=length_km)
    hosts_of: Dict[NodeId, List[NodeId]] = {}
    host_num = 0
    for p in range(k):
        for edge_switch in edges[p]:
            attached: List[NodeId] = []
            for _ in range(hosts_per_edge):
                host = topo.add_host(host_num)
                host_num += 1
                topo.connect(
                    host, edge_switch, port_a=0, length_km=host_length_km
                )
                attached.append(host)
            if attached:
                hosts_of[edge_switch] = attached
    return StructuredTopology(
        name="fat_tree",
        params={"k": k, "hosts_per_edge": hosts_per_edge},
        topology=topo,
        tier=tier,
        pod=pod,
        hosts_of=hosts_of,
    )


def spine_leaf(
    n_spines: int,
    n_leaves: int,
    hosts_per_leaf: int = 0,
    length_km: float = 0.1,
    host_length_km: float = 0.05,
) -> StructuredTopology:
    """A 2-tier spine-leaf fabric: every leaf cabled once to every spine.

    Spines get ``n_leaves`` ports; leaves get ``n_spines +
    hosts_per_leaf``.
    """
    if n_spines < 1 or n_leaves < 1:
        raise TopologyError(
            f"spine_leaf needs >= 1 spine and leaf, got "
            f"{n_spines}x{n_leaves}"
        )
    topo = Topology()
    tier: Dict[NodeId, str] = {}
    pod: Dict[NodeId, Optional[int]] = {}
    leaf_ports = n_spines + hosts_per_leaf
    spines = [topo.add_switch(i, ports=n_leaves) for i in range(n_spines)]
    leaves = [
        topo.add_switch(n_spines + i, ports=leaf_ports)
        for i in range(n_leaves)
    ]
    for s in spines:
        tier[s] = TIER_SPINE
        pod[s] = None
    for index, leaf in enumerate(leaves):
        tier[leaf] = TIER_LEAF
        pod[leaf] = index
    for leaf in leaves:
        for spine in spines:
            topo.connect(leaf, spine, length_km=length_km)
    hosts_of: Dict[NodeId, List[NodeId]] = {}
    host_num = 0
    for leaf in leaves:
        attached: List[NodeId] = []
        for _ in range(hosts_per_leaf):
            host = topo.add_host(host_num)
            host_num += 1
            topo.connect(host, leaf, port_a=0, length_km=host_length_km)
            attached.append(host)
        if attached:
            hosts_of[leaf] = attached
    return StructuredTopology(
        name="spine_leaf",
        params={
            "n_spines": n_spines,
            "n_leaves": n_leaves,
            "hosts_per_leaf": hosts_per_leaf,
        },
        topology=topo,
        tier=tier,
        pod=pod,
        hosts_of=hosts_of,
    )
