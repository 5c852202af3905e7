"""E7 -- Slepian-Duguid scheduling: Figures 2 and 3, and the N-step bound.

Paper (section 4):

- Figure 2's reservation matrix and schedule, and Figure 3's worked
  insertion of a 4->3 reservation, which "terminates after three steps";
- "a schedule can be found for any set of reservations that does not
  over-commit the bandwidth of any link";
- "the time required is linear in the size of the switch and independent
  of frame size...  this will require at most N steps...  adding a
  reservation for k cells takes at most N x k steps".
"""

import random

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.guaranteed.frames import (
    FrameSchedule,
    ScheduleError,
    figure2_schedule,
    figure3_initial_schedule,
)
from repro.core.guaranteed.slepian_duguid import build_schedule, insert_cell

#: Figure 2's reservation matrix as printed (cells/frame, input row ->
#: output column, 0-based).
FIGURE2_MATRIX = [
    [0, 1, 1, 1],
    [2, 0, 0, 0],
    [0, 2, 0, 1],
    [1, 0, 1, 0],
]


def random_admissible_matrix(n, slots, rng):
    matrix = [[0] * n for _ in range(n)]
    rows, cols = [0] * n, [0] * n
    for _ in range(40 * n):
        i, o = rng.randrange(n), rng.randrange(n)
        k = min(rng.randint(1, 3), slots - rows[i], slots - cols[o])
        if k > 0:
            matrix[i][o] += k
            rows[i] += k
            cols[o] += k
    return matrix


def figure2_holds():
    """Figure 2's schedule is consistent, carries the printed matrix,
    and the matrix alone schedules into the figure's three slots."""
    schedule = figure2_schedule()
    try:
        schedule.check_consistent()
        rebuilt, _ = build_schedule(4, 3, FIGURE2_MATRIX)
        rebuilt.check_consistent()
    except ScheduleError:
        return False
    return (
        schedule.reservation_matrix() == FIGURE2_MATRIX
        and rebuilt.reservation_matrix() == FIGURE2_MATRIX
    )


def figure3_trace():
    schedule = figure3_initial_schedule()
    return insert_cell(schedule, 3, 2), schedule


def step_statistics(n, slots, trials, rng):
    """Insert cells into random near-full schedules; track step counts.

    The base matrix is generated against ``slots - 2`` so every row and
    column keeps headroom for the insertions being measured.
    """
    max_steps, total_steps, inserts = 0, 0, 0
    for _ in range(trials):
        matrix = random_admissible_matrix(n, slots - 2, rng)
        schedule, _ = build_schedule(n, slots, matrix)
        for _ in range(3 * n):
            i, o = rng.randrange(n), rng.randrange(n)
            if not schedule.admits(i, o):
                continue
            trace = insert_cell(schedule, i, o)
            max_steps = max(max_steps, trace.steps)
            total_steps += trace.steps
            inserts += 1
        schedule.check_consistent()
    return max_steps, total_steps / max(1, inserts), inserts


def frame_size_independence(n, rng):
    """The same demand shape inserted into growing frames: steps must not
    grow with frame size."""
    worsts = []
    for slots in (16, 64, 256, 1024):
        schedule = FrameSchedule(n, slots)
        # Fill to ~90% so insertions need displacement chains.
        matrix = random_admissible_matrix(n, int(slots * 0.9), rng)
        schedule, _ = build_schedule(n, slots, matrix)
        worst = 0
        for _ in range(20):
            i, o = rng.randrange(n), rng.randrange(n)
            if schedule.admits(i, o):
                worst = max(worst, insert_cell(schedule, i, o).steps)
        worsts.append((slots, worst))
    return worsts


def run_experiment():
    figure2 = figure2_holds()
    trace, final = figure3_trace()
    stats = {
        n: step_statistics(n, 2 * n, trials=8, rng=random.Random(n))
        for n in (4, 8, 16, 32)
    }
    independence = frame_size_independence(8, random.Random(99))
    return figure2, trace, final, stats, independence


def test_e7_slepian_duguid(benchmark, report_sink):
    figure2, trace, final, stats, independence = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    report = ExperimentReport("E7", "Slepian-Duguid schedule insertion")
    report.check(
        "Figure 2 schedule",
        "matrix as printed, fits 3 slots",
        "yes" if figure2 else "no",
        holds=figure2,
    )
    report.check(
        "Figure 3: add 4->3 to the Figure 2 slots",
        "terminates after 3 steps",
        f"{trace.steps} steps, {trace.displacements} moves",
        holds=trace.steps == 3,
    )
    figure_final = {
        0: {0: 1, 1: 0, 2: 3, 3: 2},
        1: {0: 2, 2: 1, 3: 0},
    }
    exact = all(
        final.slot_assignments(slot) == expected
        for slot, expected in figure_final.items()
    )
    report.check(
        "Figure 3 final arrangement",
        "matches the paper exactly",
        "yes" if exact else "no",
        holds=exact,
    )

    table = Table(
        ["N", "insertions", "mean steps", "max steps", "bound N+1"]
    )
    bound_ok = True
    for n, (max_steps, mean_steps, inserts) in stats.items():
        table.add_row(n, inserts, mean_steps, max_steps, n + 1)
        bound_ok &= max_steps <= n + 1
    report.add_table(table)
    report.check(
        "steps per cell",
        "at most N (+1 initial placement)",
        "within bound at N=4..32" if bound_ok else "EXCEEDED",
        holds=bound_ok,
    )

    ind_table = Table(["frame slots", "worst steps (N=8)"])
    for slots, worst in independence:
        ind_table.add_row(slots, worst)
    report.add_table(ind_table)
    worst_small = independence[0][1]
    worst_large = independence[-1][1]
    report.check(
        "independent of frame size",
        "steps do not grow with slots",
        f"{worst_small} steps @16 slots vs {worst_large} @1024",
        holds=worst_large <= 8 + 1,
    )
    report_sink(report)
    assert report.all_hold
