"""The Solution interface: interchangeable cures for cell loss.

A solution plugs into a scenario at three seams:

- **link observation** -- :meth:`Solution.attach` may install the
  :class:`~repro.net.link.Link` hooks (``tx_observers``,
  ``adjudicator``, ``deliver_hook``, ``state_observers``) on whichever
  links it cares about;
- **scenario lifecycle** -- the runner calls
  :meth:`Solution.on_circuits_open` after circuits are established
  (solutions that need extra circuits open them here, while the kernel
  is between ``run`` calls), :meth:`Solution.schedule_traffic` when
  traffic is laid out (returning True replaces the default recorded
  loads -- how ``e2e_arq`` substitutes ARQ transfers), and
  :meth:`Solution.finish` after the fault window, *before* the final
  settle -- a solution holding a link down for repair must release it
  here so full reconvergence stays a fair demand;
- **judgement** -- :meth:`Solution.metrics` feeds the comparison table
  and :meth:`Solution.invariants` may append solution-specific checks
  to the scenario verdict.

The digest-neutrality contract: a solution that overrides *nothing*
(:class:`~repro.solutions.do_nothing.DoNothing`) must leave a scenario
run digest-identical to a solution-less run.  ``attach`` therefore only
creates a metrics node with a gauge per :meth:`Solution.metrics` entry
(registry state is not digested); it must not schedule events or
install hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.invariants import InvariantResult
    from repro.faults.runner import ScenarioRunner
    from repro.net.network import Network


class SolutionError(Exception):
    """The solution could not be constructed or attached."""


class Solution:
    """Base class: every hook is a no-op; every subclass picks its seams."""

    #: registry / table name; subclasses override.
    name = "solution"

    def __init__(self) -> None:
        self.net: Optional["Network"] = None
        self.probes = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, net: "Network") -> None:
        """Bind to a network (before boot).  Subclasses that install
        link hooks must call ``super().attach(net)`` first."""
        if self.net is not None and self.net is not net:
            raise SolutionError(
                f"solution {self.name!r} is already attached to a network; "
                "build a fresh instance per scenario run"
            )
        self.net = net
        self.probes = net.registry.node(f"solutions.{self.name}")
        # Every number the comparison table reads is a gauge on the node.
        for key in self.metrics():
            self.probes.gauge(key, lambda key=key: self.metrics()[key])

    def on_circuits_open(self, runner: "ScenarioRunner") -> None:
        """Called after the runner opened the load circuits (may advance
        simulated time; the kernel is between ``run`` calls here)."""

    def schedule_traffic(
        self, runner: "ScenarioRunner", t0: float, vcs: List[int]
    ) -> bool:
        """Lay out the scenario's traffic.  Return True to replace the
        runner's default recorded loads (``e2e_arq`` does); False keeps
        the default path byte-for-byte."""
        return False

    def finish(self, runner: "ScenarioRunner") -> None:
        """Called after the fault window, before the final settle; undo
        any administrative state (e.g. release links held for repair)."""

    # -- judgement -----------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Plain numbers for the comparison table (name -> value)."""
        return {}

    def invariants(self, net: "Network") -> List["InvariantResult"]:
        """Solution-specific invariants appended to the scenario verdict."""
        return []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


#: name -> factory for every shipped solution (filled by the modules).
SOLUTIONS: Dict[str, Callable[..., Solution]] = {}


def register(name: str, factory: Callable[..., Solution]) -> None:
    SOLUTIONS[name] = factory


def make_solution(name: str, **kwargs) -> Solution:
    """Build a registered solution by name (keyword args reach the
    constructor)."""
    factory = SOLUTIONS.get(name)
    if factory is None:
        raise SolutionError(
            f"unknown solution {name!r}; choose from {sorted(SOLUTIONS)}"
        )
    return factory(**kwargs)
