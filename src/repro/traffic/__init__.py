"""Workload generators.

Slot-level cell arrival processes for the single-switch fabric
experiments (:mod:`repro.traffic.arrivals`), constant-bit-rate guaranteed
streams (:mod:`repro.traffic.cbr`), and host-level packet workloads
(:mod:`repro.traffic.workload`).
"""

# Kept because benchmarks/e2e/workloads.py imports these two from the package.
from repro.traffic.cbr import CbrSource
from repro.traffic.workload import RpcWorkload
