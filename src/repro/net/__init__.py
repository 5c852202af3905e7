"""Network element substrate: cells, packets, links, ports, nodes, topologies.

This subpackage models the *hardware* of an AN2 installation -- everything
below the distributed algorithms of :mod:`repro.core`:

- :mod:`repro.net.cell` / :mod:`repro.net.packet` / :mod:`repro.net.aal` --
  the data units (fixed-size ATM cells, host-visible variable-length
  packets, and the segmentation/reassembly between them),
- :mod:`repro.net.link` / :mod:`repro.net.port` -- full-duplex point-to-
  point links with latency, serialization time, failure and error
  injection,
- :mod:`repro.net.node` -- the base class for switches and hosts,
- :mod:`repro.net.topology` -- connection-pattern descriptions and
  generators (including the paper's Figure-1-style SRC installation),
- :mod:`repro.net.topogen` -- structured datacenter-scale generators
  (k-ary fat-tree, spine-leaf) with tier/pod metadata.
"""

from repro.net.aal import Reassembler, Segmenter
from repro.net.cell import Cell, CellKind, TrafficClass
from repro.net.host import Host, HostConfig
from repro.net.link import Link, LinkState
from repro.net.network import Network, NetworkError
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.topogen import StructuredTopology, fat_tree, spine_leaf
from repro.net.topology import Topology, TopologyError, TopologyView

__all__ = [
    "Cell",
    "CellKind",
    "Host",
    "HostConfig",
    "Link",
    "LinkState",
    "Network",
    "NetworkError",
    "Packet",
    "Port",
    "Reassembler",
    "Segmenter",
    "StructuredTopology",
    "Topology",
    "TopologyError",
    "TopologyView",
    "TrafficClass",
    "fat_tree",
    "spine_leaf",
]
