"""Crossbar scheduling: parallel iterative matching and baselines.

Every cell slot, the switch must pair inputs with outputs -- "This
bi-partite matching problem must be solved every time slot, in the half
microsecond required to transmit a cell" (section 3).  This package holds
the schedulers:

- :class:`~repro.core.matching.bitmask.BitmaskPim` -- AN2's randomized
  request/grant/accept algorithm, over port bitmasks (N <= 64),
- :class:`~repro.core.matching.bitmask.BitmaskIslip` -- a round-robin
  variant, used as an ablation,
- :class:`~repro.core.matching.maximum.MaximumMatcher` -- maximum
  bipartite matching (Hopcroft-Karp), the paper's starvation-prone
  strawman,
- :class:`~repro.core.matching.fifo.FifoScheduler` -- head-of-line FIFO
  contention, the 58%-throughput baseline,

plus legality/maximality analysis helpers in
:mod:`repro.core.matching.analysis`.  The set-based reference
renderings of PIM and iSLIP that the kernel is bit-identical to live
with the oracle, in :mod:`repro.conform.reference`.
"""

from repro.core.matching.analysis import (
    is_legal_matching,
    is_maximal_matching,
    match_size,
)
from repro.core.matching.bitmask import (
    BitmaskIslip,
    BitmaskPim,
    MatchResult,
    iter_bits,
    mask_of,
)
from repro.core.matching.fifo import FifoScheduler
from repro.core.matching.maximum import MaximumMatcher, hopcroft_karp

__all__ = [
    "BitmaskIslip",
    "BitmaskPim",
    "FifoScheduler",
    "MatchResult",
    "MaximumMatcher",
    "hopcroft_karp",
    "is_legal_matching",
    "is_maximal_matching",
    "iter_bits",
    "mask_of",
    "match_size",
]
