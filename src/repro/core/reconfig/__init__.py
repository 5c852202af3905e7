"""Topology acquisition and fault monitoring (section 2).

- :mod:`repro.core.reconfig.epoch` -- (epoch number, switch id) tags and
  their total order, which serialize overlapping reconfigurations,
- :mod:`repro.core.reconfig.messages` -- the invitation / ack / report /
  distribute messages of the three-phase algorithm,
- :mod:`repro.core.reconfig.algorithm` -- the reconfiguration agent run by
  every switch: propagation (spanning-tree building), collection
  (topology up the tree), distribution (topology down the tree),
- :mod:`repro.core.reconfig.monitor` -- per-port neighbor pinging that
  turns raw links into clean "working"/"dead" abstractions,
- :mod:`repro.core.reconfig.skeptic` -- the escalating hold-down state
  machine that keeps flapping links from melting the network.
"""
