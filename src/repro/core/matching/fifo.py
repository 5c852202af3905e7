"""FIFO head-of-line scheduling -- the 58%-throughput baseline.

"The simplest approach is a FIFO queue of cells at each input; only the
first cell in the queue is eligible for transmission across the switch...
Karol et al. have shown that head-of-line blocking limits switch
throughput to 58% of each link, when the destinations of incoming cells
are uniformly distributed among all outputs."  (Section 3.)

The scheduler sees only each input's head-of-line destination.  When
several heads want the same output, one is chosen at random (modelling
fair output contention); the losers block their whole queues.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.core.matching.bitmask import MatchResult, Matching


class FifoScheduler:
    """Resolve head-of-line contention with random winners."""

    name = "fifo"

    def __init__(self, n_ports: int, rng: Optional[random.Random] = None) -> None:
        self.n_ports = n_ports
        self.rng = rng if rng is not None else random.Random(0)

    def match_heads(
        self,
        heads: Sequence[Optional[int]],
        pre_matched: Optional[Matching] = None,
    ) -> MatchResult:
        """Match given each input's head-of-line output (or ``None``)."""
        if len(heads) != self.n_ports:
            raise ValueError(
                f"expected {self.n_ports} head entries, got {len(heads)}"
            )
        matching: Matching = dict(pre_matched) if pre_matched else {}
        taken_outputs = set(matching.values())
        contenders: Dict[int, List[int]] = {}
        for input_port, output_port in enumerate(heads):
            if output_port is None or input_port in matching:
                continue
            if output_port in taken_outputs:
                continue
            contenders.setdefault(output_port, []).append(input_port)
        added = 0
        for output_port in sorted(contenders):
            inputs = contenders[output_port]
            winner = inputs[self.rng.randrange(len(inputs))]
            matching[winner] = output_port
            added += 1
        return MatchResult(
            matching=matching,
            iterations_run=1,
            iterations_to_maximal=1,
            new_matches_per_iteration=[added],
        )
