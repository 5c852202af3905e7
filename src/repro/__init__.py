"""repro: AN2 -- a local area network as a distributed system.

A full reproduction of Susan S. Owicki's PODC'93 paper "A Perspective on
AN2: Local Area Network as Distributed System" (Digital Equipment
Corporation, Systems Research Center): the AN1/AN2 switch-based LAN
rebuilt as a simulated distributed system, mechanism by mechanism.

Quick start::

    from repro.net.network import Network
    from repro.net.packet import Packet
    from repro.net.topology import Topology

    topo = Topology.src_lan(n_switches=8, n_hosts=6)
    net = Network(topo, seed=1)
    net.start()
    net.run_until_converged()          # distributed topology acquisition

    circuit = net.setup_circuit("h0", "h1")   # hop-by-hop signaling
    net.host("h0").send_packet(circuit.vc, Packet(
        source=circuit.source, destination=circuit.destination,
        payload=b"hello AN2"))
    net.run(50_000)
    print(net.host("h1").delivered)

Subpackages:

- :mod:`repro.sim` -- discrete-event kernel, drifting clocks, RNG streams
- :mod:`repro.net` -- cells, packets, SAR, links, ports, topologies,
  hosts, and the :class:`~repro.net.network.Network` assembly
- :mod:`repro.switch` -- line cards, crossbar, buffers, the event-driven
  switch, and the fast slot-synchronous fabric simulators
- :mod:`repro.core` -- the paper's algorithms: reconfiguration, skeptic,
  up*/down* routing, signaling, PIM, Slepian-Duguid, bandwidth central,
  credit flow control
- :mod:`repro.fastpath` -- the fabric-wide slot wave
- :mod:`repro.traffic` -- workload generators
- :mod:`repro.obs` -- tracing, cell journeys, flight recorder, metrics
- :mod:`repro.faults` -- fault plans, the scenario runner, invariants
- :mod:`repro.conform` -- run digests and differential oracles
- :mod:`repro.analysis` -- statistics and benchmark table rendering

Package ``__init__`` files hold docstrings, not re-exports (only
:mod:`repro.traffic` keeps two names the end-to-end benchmark imports):
import each name from the module that defines it.
"""
