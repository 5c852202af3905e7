"""Slot-level cell arrival processes for fabric experiments.

Section 3 evaluates schedulers under "a variety of cell arrival patterns";
the classic set (used in the companion ASPLOS'92 paper this section
summarizes) is:

- i.i.d. Bernoulli arrivals with uniform destinations -- the pattern under
  which FIFO input queueing saturates at 58%,
- bursty on/off sources (geometric burst lengths, one destination per
  burst) -- LAN-like traffic where "cells tend to arrive in bursts",
- hotspot/client-server patterns where many inputs favour one output,
- fixed permutations (no output conflicts: any work-conserving scheduler
  should achieve 100%),
- the paper's starvation pattern: input 1 always has cells for outputs 2
  and 3, input 4 always has cells for output 3.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.sim.random import derived_stream

Arrival = Tuple[int, int]  # (input port, output port)

# Deprecation note: every process used to fall back to a *shared*
# ``random.Random(0)``, so two default-constructed processes drew
# identical (perfectly correlated) arrival streams.  The fallback is now
# a per-class substream from :func:`repro.sim.random.derived_stream`;
# pass an explicit ``rng`` (unchanged signature) to control seeding.


class ArrivalProcess:
    """Base class: yields the cell arrivals for each slot."""

    def __init__(self, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError(f"n_ports must be positive, got {n_ports}")
        self.n_ports = n_ports

    def arrivals(
        self, slot: int
    ) -> List[Arrival]:  # pragma: no cover - interface
        """Cells arriving at the start of ``slot``."""
        raise NotImplementedError

    @property
    def offered_load(self) -> float:  # pragma: no cover - interface
        """Average cells per input per slot this process generates."""
        raise NotImplementedError


class BernoulliUniform(ArrivalProcess):
    """Each input receives a cell with probability ``load``; destination
    uniform over all outputs (independently per cell)."""

    def __init__(
        self, n_ports: int, load: float, rng: Optional[random.Random] = None
    ) -> None:
        super().__init__(n_ports)
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load {load} out of [0, 1]")
        self.load = load
        self.rng = rng if rng is not None else derived_stream("arrivals.bernoulli")

    @property
    def offered_load(self) -> float:
        return self.load

    def arrivals(self, slot: int) -> List[Arrival]:
        cells: List[Arrival] = []
        for input_port in range(self.n_ports):
            if self.rng.random() < self.load:
                cells.append((input_port, self.rng.randrange(self.n_ports)))
        return cells


class Hotspot(ArrivalProcess):
    """Uniform arrivals, but a fraction of cells target one hot output."""

    def __init__(
        self,
        n_ports: int,
        load: float,
        hot_output: int = 0,
        hot_fraction: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(n_ports)
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load {load} out of [0, 1]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction {hot_fraction} out of [0, 1]")
        if not 0 <= hot_output < n_ports:
            raise ValueError(f"hot output {hot_output} out of range")
        self.load = load
        self.hot_output = hot_output
        self.hot_fraction = hot_fraction
        self.rng = rng if rng is not None else derived_stream("arrivals.hotspot")

    @property
    def offered_load(self) -> float:
        return self.load

    def arrivals(self, slot: int) -> List[Arrival]:
        cells: List[Arrival] = []
        for input_port in range(self.n_ports):
            if self.rng.random() >= self.load:
                continue
            if self.rng.random() < self.hot_fraction:
                cells.append((input_port, self.hot_output))
            else:
                cells.append((input_port, self.rng.randrange(self.n_ports)))
        return cells


class BurstyOnOff(ArrivalProcess):
    """Per-input on/off bursts; all cells of a burst share a destination.

    Burst and idle lengths are geometric.  ``mean_burst`` sets the average
    on-period in cells; the idle period mean is derived so the long-run
    load equals ``load``.
    """

    def __init__(
        self,
        n_ports: int,
        load: float,
        mean_burst: float = 16.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(n_ports)
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load {load} out of (0, 1]")
        if mean_burst < 1.0:
            raise ValueError(f"mean_burst {mean_burst} must be >= 1")
        self.load = load
        self.mean_burst = mean_burst
        self.rng = rng if rng is not None else derived_stream("arrivals.bursty")
        # Geometric parameters: P(end of burst) per slot while on, and
        # P(start of burst) per slot while off.  With mean on-length B and
        # mean off-length I, load = B / (B + I)  =>  I = B (1-load)/load.
        self._p_end = 1.0 / mean_burst
        mean_idle = mean_burst * (1.0 - load) / load if load < 1.0 else 0.0
        self._p_start = 1.0 if mean_idle == 0 else min(1.0, 1.0 / mean_idle)
        self._on: List[bool] = [False] * n_ports
        self._dest: List[int] = [0] * n_ports

    @property
    def offered_load(self) -> float:
        return self.load

    def arrivals(self, slot: int) -> List[Arrival]:
        cells: List[Arrival] = []
        for input_port in range(self.n_ports):
            if self._on[input_port]:
                cells.append((input_port, self._dest[input_port]))
                if self.rng.random() < self._p_end:
                    self._on[input_port] = False
            else:
                if self.rng.random() < self._p_start:
                    self._on[input_port] = True
                    self._dest[input_port] = self.rng.randrange(self.n_ports)
                    cells.append((input_port, self._dest[input_port]))
                    if self.rng.random() < self._p_end:
                        self._on[input_port] = False
        return cells


class Permutation(ArrivalProcess):
    """Each input sends only to one fixed output (no output conflicts)."""

    def __init__(
        self,
        n_ports: int,
        load: float,
        mapping: Optional[Sequence[int]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(n_ports)
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load {load} out of [0, 1]")
        self.load = load
        self.rng = rng if rng is not None else derived_stream("arrivals.permutation")
        if mapping is None:
            outputs = list(range(n_ports))
            self.rng.shuffle(outputs)
            mapping = outputs
        if sorted(mapping) != list(range(n_ports)):
            raise ValueError("mapping must be a permutation of the outputs")
        self.mapping = list(mapping)

    @property
    def offered_load(self) -> float:
        return self.load

    def arrivals(self, slot: int) -> List[Arrival]:
        return [
            (input_port, self.mapping[input_port])
            for input_port in range(self.n_ports)
            if self.rng.random() < self.load
        ]


class StarvationPattern(ArrivalProcess):
    """The paper's maximum-matching starvation example (section 3).

    "Suppose input 1 consistently has cells for outputs 2 and 3, and input
    4 consistently has cells for output 3.  The maximum match always pairs
    input 1 with output 2 and input 4 with output 3" -- starving the
    circuit from input 1 to output 3.  Every slot, input 1 receives one
    cell for output 2 and one for output 3, and input 4 one cell for
    output 3.
    """

    def __init__(self, n_ports: int = 16) -> None:
        super().__init__(n_ports)
        if n_ports < 5:
            raise ValueError("pattern uses ports 1..4; need n_ports >= 5")

    @property
    def offered_load(self) -> float:
        # Three cells per slot over n_ports inputs.
        return 3.0 / self.n_ports

    def arrivals(self, slot: int) -> List[Arrival]:
        return [(1, 2), (1, 3), (4, 3)]
