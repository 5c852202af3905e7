"""Fault-injection scenarios: declarative plans, a runner, invariants.

The paper's systems claims are operational ("pull the plug... users see
no service interruption"), so reproducing them takes scripted fault
campaigns with machine-checked recovery criteria.  See
:mod:`repro.faults.plan` for the event vocabulary,
:mod:`repro.faults.runner` for execution, and
:mod:`repro.faults.invariants` for what "recovered" means.
"""

from repro.faults.invariants import (
    InvariantResult,
    check_all,
    check_convergence,
    check_credit_conservation,
    check_no_misassembly,
    check_skeptic_bounded,
    max_verdict_changes,
)
from repro.faults.plan import (
    ClockDriftStep,
    CreditLossBurst,
    ErrorRateStep,
    FaultEvent,
    FaultPlan,
    LinkCut,
    LinkFlap,
    PlanError,
    SwitchCrash,
)
from repro.faults.runner import (
    ScenarioError,
    ScenarioResult,
    ScenarioRunner,
    TrafficLoad,
)
from repro.faults.scenarios import (
    CANNED,
    Scenario,
    build_corruption_burst,
    build_credit_loss,
    build_flapping_link,
    build_pull_the_plug,
    build_random_scenario,
    random_biconnected_topology,
    random_plan,
)

__all__ = [
    "CANNED",
    "ClockDriftStep",
    "CreditLossBurst",
    "ErrorRateStep",
    "FaultEvent",
    "FaultPlan",
    "InvariantResult",
    "LinkCut",
    "LinkFlap",
    "PlanError",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "SwitchCrash",
    "TrafficLoad",
    "build_corruption_burst",
    "build_credit_loss",
    "build_flapping_link",
    "build_pull_the_plug",
    "build_random_scenario",
    "check_all",
    "check_convergence",
    "check_credit_conservation",
    "check_no_misassembly",
    "check_skeptic_bounded",
    "max_verdict_changes",
    "random_biconnected_topology",
    "random_plan",
]
