"""The paper's primary contribution: AN2's distributed algorithms.

- :mod:`repro.core.reconfig` -- topology acquisition (the three-phase
  spanning-tree algorithm with epoch tags), the link-state skeptic, and
  neighbor monitoring (section 2),
- :mod:`repro.core.routing` -- virtual circuits, setup signaling,
  up*/down* route restriction, and the proposed extensions: circuit
  page-out/in and local reroute (sections 2 and 5),
- :mod:`repro.core.matching` -- parallel iterative matching and the
  scheduling baselines it is evaluated against (section 3),
- :mod:`repro.core.guaranteed` -- frame schedules, Slepian-Duguid
  insertion, bandwidth central admission control, latency/buffer bounds
  (section 4),
- :mod:`repro.core.flowcontrol` -- credit-based flow control, credit
  resynchronization, sizing, and deadlock analysis (section 5).
"""
