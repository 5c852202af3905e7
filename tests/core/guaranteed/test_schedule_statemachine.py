"""Stateful property testing of the frame schedule.

A hypothesis rule-based machine drives arbitrary interleavings of
Slepian-Duguid insertions and removals against a FrameSchedule, checking
the crossbar invariants and a model of the reservation matrix after
every step.  This is the "program verification" spirit the paper credits
for finding flaws in early reconfiguration versions, applied to the
scheduling layer.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.guaranteed.frames import FrameSchedule
from repro.core.guaranteed.slepian_duguid import insert_cell, remove_cell

N_PORTS = 4
N_SLOTS = 6


class ScheduleMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.schedule = FrameSchedule(N_PORTS, N_SLOTS)
        self.model = [[0] * N_PORTS for _ in range(N_PORTS)]

    # ------------------------------------------------------------------
    @rule(
        i=st.integers(min_value=0, max_value=N_PORTS - 1),
        o=st.integers(min_value=0, max_value=N_PORTS - 1),
    )
    def insert(self, i, o):
        row = sum(self.model[i])
        col = sum(self.model[x][o] for x in range(N_PORTS))
        if row < N_SLOTS and col < N_SLOTS:
            trace = insert_cell(self.schedule, i, o)
            assert trace.steps <= N_PORTS + 1
            self.model[i][o] += 1
        else:
            assert not self.schedule.admits(i, o)

    @rule(
        i=st.integers(min_value=0, max_value=N_PORTS - 1),
        o=st.integers(min_value=0, max_value=N_PORTS - 1),
    )
    def remove(self, i, o):
        if self.model[i][o] > 0:
            slot = remove_cell(self.schedule, i, o)
            assert 0 <= slot < N_SLOTS
            self.model[i][o] -= 1

    # ------------------------------------------------------------------
    @invariant()
    def crossbar_constraints_hold(self):
        if not hasattr(self, "schedule"):
            return
        self.schedule.check_consistent()

    @invariant()
    def matrix_matches_model(self):
        if not hasattr(self, "schedule"):
            return
        assert self.schedule.reservation_matrix() == self.model

    @invariant()
    def totals_match(self):
        if not hasattr(self, "schedule"):
            return
        for i in range(N_PORTS):
            assert self.schedule._input_total[i] == sum(self.model[i])


TestScheduleMachine = ScheduleMachine.TestCase
TestScheduleMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
