"""FaultPlan construction, validation, and ordering."""

import pytest

from repro.faults.plan import (
    ClockDriftStep,
    CreditLossBurst,
    ErrorRateStep,
    FaultPlan,
    LinkCut,
    LinkFlap,
    PlanError,
    SwitchCrash,
)


class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(PlanError):
            LinkCut(at_us=-1.0, a="s0", b="s1")

    def test_restore_before_cut_rejected(self):
        with pytest.raises(PlanError):
            LinkCut(at_us=100.0, a="s0", b="s1", restore_at_us=50.0)

    def test_restart_before_crash_rejected(self):
        with pytest.raises(PlanError):
            SwitchCrash(at_us=100.0, switch="s0", restart_at_us=100.0)

    def test_flap_needs_positive_phases(self):
        with pytest.raises(PlanError):
            LinkFlap(at_us=0.0, a="s0", b="s1", flaps=0)
        with pytest.raises(PlanError):
            LinkFlap(at_us=0.0, a="s0", b="s1", down_us=0.0)

    def test_burst_probability_range(self):
        with pytest.raises(PlanError):
            CreditLossBurst(at_us=0.0, a="s0", b="s1", probability=0.0)
        with pytest.raises(PlanError):
            CreditLossBurst(at_us=0.0, a="s0", b="s1", probability=1.5)

    def test_error_rate_range(self):
        with pytest.raises(PlanError):
            ErrorRateStep(at_us=0.0, a="s0", b="s1", rate=1.5)

    def test_impossible_drift_rejected(self):
        with pytest.raises(PlanError):
            ClockDriftStep(at_us=0.0, switch="s0", drift_ppm=-2_000_000.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LinkCut(at_us=float("inf"), a="s0", b="s1"),
            lambda: LinkCut(at_us=0.0, a="s0", b="s1",
                            restore_at_us=float("inf")),
            lambda: SwitchCrash(at_us=float("nan"), switch="s0"),
            lambda: LinkFlap(at_us=0.0, a="s0", b="s1", down_us=float("inf")),
            lambda: CreditLossBurst(at_us=0.0, a="s0", b="s1",
                                    duration_us=float("inf")),
            lambda: ErrorRateStep(at_us=0.0, a="s0", b="s1",
                                  until_us=float("inf")),
            lambda: ClockDriftStep(at_us=0.0, switch="s0",
                                   drift_ppm=float("nan")),
        ],
        ids=[
            "cut-at-inf", "restore-at-inf", "crash-at-nan", "flap-down-inf",
            "burst-inf", "error-until-inf", "drift-nan",
        ],
    )
    def test_non_finite_numbers_rejected(self, make):
        """NaN slips past every ``<``/``<=`` range check and an infinite
        time never fires: both must be refused by name."""
        with pytest.raises(PlanError, match="must be finite"):
            make()

    def test_events_are_immutable(self):
        event = LinkCut(at_us=5.0, a="s0", b="s1")
        with pytest.raises(Exception):
            event.at_us = 10.0


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan.of(
            SwitchCrash(at_us=300.0, switch="s1"),
            LinkCut(at_us=100.0, a="s0", b="s1"),
            LinkFlap(at_us=200.0, a="s1", b="s2"),
        )
        assert [e.at_us for e in plan] == [100.0, 200.0, 300.0]

    def test_end_covers_restores_and_trains(self):
        plan = FaultPlan.of(
            LinkCut(at_us=0.0, a="s0", b="s1", restore_at_us=500.0),
            LinkFlap(at_us=100.0, a="s1", b="s2", flaps=2,
                     down_us=100.0, up_us=100.0),
        )
        assert plan.end_us == 500.0

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.end_us == 0.0
        assert plan.describe() == "(empty plan)"

    def test_non_event_rejected(self):
        with pytest.raises(PlanError):
            FaultPlan(("not an event",))

    def test_describe_mentions_every_event(self):
        plan = FaultPlan.of(
            LinkCut(at_us=100.0, a="s0", b="s1"),
            SwitchCrash(at_us=200.0, switch="s2", restart_at_us=400.0),
        )
        text = plan.describe()
        assert "s0<->s1" in text
        assert "crash s2" in text
