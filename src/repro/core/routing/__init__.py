"""Virtual-circuit routing (sections 2 and 5).

- :mod:`repro.core.routing.updown` -- up*/down* link orientation and
  legal-path search (AN1's deadlock-avoiding route restriction),
- :mod:`repro.core.routing.paths` -- the per-view route computer (the
  orientation plus host attachments),
- :mod:`repro.core.routing.circuits` -- virtual-circuit identities and
  life cycle,
- :mod:`repro.core.routing.signaling` -- hop-by-hop circuit setup ("a
  cell containing the ids of the source and destination hosts is sent
  along a separate signaling circuit"),
- :mod:`repro.core.routing.paging` -- the idle-circuit page-out/page-in
  extension,
- :mod:`repro.core.routing.reroute` -- local rerouting around failed
  links.

The paper's speculative load balancing ("algorithms to determine when
and where circuits should be moved have yet to be considered", section
2) is not reproduced.
"""
