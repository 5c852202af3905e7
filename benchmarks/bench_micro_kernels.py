"""Micro-benchmarks of the hot algorithmic kernels.

These are conventional pytest-benchmark timings (many rounds) of the
three algorithms that run per cell slot or per reservation in the real
hardware -- useful for tracking simulator performance regressions and
for appreciating the paper's hardware constraints: PIM must finish in
half a microsecond of *wire time*; our software model is measured here
in wall-clock terms.
"""

import random

from repro.core.guaranteed.frames import FrameSchedule
from repro.core.guaranteed.slepian_duguid import insert_cell, remove_cell
from repro.core.matching.bitmask import BitmaskPim
from repro.core.matching.maximum import hopcroft_karp

N = 16


def test_pim_match_slot(benchmark):
    """One 16x16 PIM decision (3 iterations) on dense requests."""
    rng = random.Random(1)
    matcher = BitmaskPim(N, 3, random.Random(2))
    requests = [
        {o for o in range(N) if rng.random() < 0.5} for _ in range(N)
    ]
    result = benchmark(matcher.match, requests)
    assert result.size > 0


def test_hopcroft_karp_slot(benchmark):
    """The maximum-matching comparison point on the same density."""
    rng = random.Random(3)
    requests = [
        {o for o in range(N) if rng.random() < 0.5} for _ in range(N)
    ]
    matching = benchmark(hopcroft_karp, N, requests)
    assert matching


def test_slepian_duguid_insert_remove(benchmark):
    """Insert + remove one reservation into a busy 16x1024 schedule."""
    rng = random.Random(4)
    schedule = FrameSchedule(N, 1024)
    for _ in range(2000):
        i, o = rng.randrange(N), rng.randrange(N)
        if schedule.admits(i, o):
            insert_cell(schedule, i, o)

    def insert_and_remove():
        insert_cell(schedule, 3, 7)
        remove_cell(schedule, 3, 7)

    benchmark(insert_and_remove)
    schedule.check_consistent()
