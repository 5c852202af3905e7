"""Fault-injection scenarios: declarative plans, a runner, invariants.

The paper's systems claims are operational ("pull the plug... users see
no service interruption"), so reproducing them takes scripted fault
campaigns with machine-checked recovery criteria.  See
:mod:`repro.faults.plan` for the event vocabulary,
:mod:`repro.faults.runner` for execution, and
:mod:`repro.faults.invariants` for what "recovered" means.
"""
