"""Crossbar scheduling: parallel iterative matching and baselines.

Every cell slot, the switch must pair inputs with outputs -- "This
bi-partite matching problem must be solved every time slot, in the half
microsecond required to transmit a cell" (section 3).  This package holds
the schedulers:

- :class:`~repro.core.matching.pim.ParallelIterativeMatcher` -- AN2's
  randomized request/grant/accept algorithm,
- :class:`~repro.core.matching.islip.IslipMatcher` -- a round-robin
  variant, used as an ablation,
- :class:`~repro.core.matching.maximum.MaximumMatcher` -- maximum
  bipartite matching (Hopcroft-Karp), the paper's starvation-prone
  strawman,
- :class:`~repro.core.matching.fifo.FifoScheduler` -- head-of-line FIFO
  contention, the 58%-throughput baseline,
- :mod:`repro.core.matching.bitmask` -- bitmask fast-path
  re-implementations of PIM and iSLIP
  (:class:`~repro.core.matching.bitmask.BitmaskPim`,
  :class:`~repro.core.matching.bitmask.BitmaskIslip`), valid for
  N <= 64 and bit-identical to the references for a shared seed,

plus legality/maximality analysis helpers in
:mod:`repro.core.matching.analysis`.
"""

from repro.core.matching.analysis import (
    is_legal_matching,
    is_maximal_matching,
    match_size,
)
from repro.core.matching.bitmask import (
    BitmaskIslip,
    BitmaskPim,
    iter_bits,
    mask_of,
)
from repro.core.matching.fifo import FifoScheduler
from repro.core.matching.islip import IslipMatcher
from repro.core.matching.maximum import MaximumMatcher, hopcroft_karp
from repro.core.matching.pim import MatchResult, ParallelIterativeMatcher

__all__ = [
    "BitmaskIslip",
    "BitmaskPim",
    "FifoScheduler",
    "IslipMatcher",
    "MatchResult",
    "MaximumMatcher",
    "ParallelIterativeMatcher",
    "hopcroft_karp",
    "is_legal_matching",
    "is_maximal_matching",
    "iter_bits",
    "mask_of",
    "match_size",
]
