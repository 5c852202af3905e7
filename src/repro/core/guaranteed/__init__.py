"""Guaranteed (Continuous Bit Rate) traffic: frames, schedules, admission.

Section 4 of the paper: bandwidth reservations are expressed in cells per
1024-slot *frame*; a per-switch schedule assigns reserved (input, output)
pairs to slots; the Slepian-Duguid theorem guarantees that any reservation
set that over-commits no link can be scheduled, and its proof gives the
incremental insertion algorithm (Figure 3).  Admission and route selection
are performed by the "bandwidth central" service.
"""
