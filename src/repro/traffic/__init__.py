"""Workload generators.

Slot-level cell arrival processes for the single-switch fabric
experiments (:mod:`repro.traffic.arrivals`), constant-bit-rate guaranteed
streams (:mod:`repro.traffic.cbr`), and host-level packet workloads
(:mod:`repro.traffic.workload`).
"""

from repro.traffic.arq import ArqTransfer
from repro.traffic.arrivals import (
    ArrivalProcess,
    BernoulliUniform,
    BurstyOnOff,
    Hotspot,
    Permutation,
    StarvationPattern,
)
from repro.traffic.cbr import CbrSource, interarrival_jitter, latency_jitter
from repro.traffic.workload import PoissonPacketWorkload, RpcWorkload

__all__ = [
    "ArqTransfer",
    "ArrivalProcess",
    "BernoulliUniform",
    "BurstyOnOff",
    "CbrSource",
    "Hotspot",
    "Permutation",
    "PoissonPacketWorkload",
    "RpcWorkload",
    "StarvationPattern",
    "interarrival_jitter",
    "latency_jitter",
]
