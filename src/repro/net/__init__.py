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
- :mod:`repro.net.host` -- hosts and their network controllers,
- :mod:`repro.net.installation` / :mod:`repro.net.network` -- the
  operator verbs every installation has, and the AN2
  :class:`~repro.net.network.Network` that builds one from a topology,
- :mod:`repro.net.topology` -- connection-pattern descriptions and
  generators (including the paper's Figure-1-style SRC installation),
- :mod:`repro.net.topogen` -- structured datacenter-scale generators
  (k-ary fat-tree, spine-leaf) with tier/pod metadata.
"""
