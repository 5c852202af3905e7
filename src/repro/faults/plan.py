"""Declarative fault plans: what breaks, when, and for how long.

The paper's headline claim is operational: "A favorite AN1 demo is
pulling the plug on an arbitrary switch...  The network reconfigures in
less than 200 milliseconds, and users see no service interruption"
(section 1).  Reproducing that claim -- and the subtler ones about
skeptic hold-downs and credit resynchronization -- needs *scripted*
faults, not ad-hoc test code: a plan that says "at t=50ms cut this
trunk, at t=80ms start dropping credit cells, restore everything by
t=200ms", runs identically under any seed, and can be generated
randomly for chaos testing.

A :class:`FaultPlan` is an immutable, time-sorted sequence of fault
events.  Each event is a frozen dataclass naming the component it hits
and the window it is active; the :class:`~repro.faults.runner.ScenarioRunner`
translates them into simulator callbacks.  Times are microseconds
*relative to scenario start* (after initial convergence), so the same
plan applies to any topology that has the named components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Optional, Tuple, Union


class PlanError(Exception):
    """An event or plan that cannot describe a physical fault."""


@dataclass(frozen=True)
class LinkCut:
    """Cut the cable between two nodes; optionally splice it back."""

    kind: ClassVar[str] = "link_cut"
    at_us: float
    a: str
    b: str
    restore_at_us: Optional[float] = None

    def __post_init__(self) -> None:
        _check_start(self)
        if self.restore_at_us is not None and self.restore_at_us <= self.at_us:
            raise PlanError(
                f"link cut restored at {self.restore_at_us} before "
                f"it happens at {self.at_us}"
            )

    @property
    def end_us(self) -> float:
        return self.restore_at_us if self.restore_at_us is not None else self.at_us

    def describe(self) -> str:
        tail = (
            f", restored at {self.restore_at_us / 1000:.1f} ms"
            if self.restore_at_us is not None
            else " (permanent)"
        )
        return f"cut {self.a}<->{self.b} at {self.at_us / 1000:.1f} ms{tail}"


@dataclass(frozen=True)
class LinkFlap:
    """An intermittent fault: a train of down/up transitions.

    This is the input the skeptic exists for -- "a faulty link may
    exhibit intermittent failures" (section 2).  The link goes down at
    ``at_us``, comes back ``down_us`` later, and repeats ``flaps``
    times; it ends up *working*.
    """

    kind: ClassVar[str] = "link_flap"
    at_us: float
    a: str
    b: str
    flaps: int = 3
    down_us: float = 2_000.0
    up_us: float = 2_000.0

    def __post_init__(self) -> None:
        _check_start(self)
        if self.flaps <= 0:
            raise PlanError(f"flap train needs at least one flap, got {self.flaps}")
        if self.down_us <= 0 or self.up_us <= 0:
            raise PlanError(
                f"flap phases must be positive (down={self.down_us}, "
                f"up={self.up_us})"
            )

    @property
    def end_us(self) -> float:
        return self.at_us + self.flaps * (self.down_us + self.up_us)

    def describe(self) -> str:
        return (
            f"flap {self.a}<->{self.b} x{self.flaps} from "
            f"{self.at_us / 1000:.1f} ms ({self.down_us:.0f}us down / "
            f"{self.up_us:.0f}us up)"
        )


@dataclass(frozen=True)
class SwitchCrash:
    """Pull the plug on a switch: every cable to it goes dark at once."""

    kind: ClassVar[str] = "switch_crash"
    at_us: float
    switch: str
    restart_at_us: Optional[float] = None

    def __post_init__(self) -> None:
        _check_start(self)
        if self.restart_at_us is not None and self.restart_at_us <= self.at_us:
            raise PlanError(
                f"switch restarted at {self.restart_at_us} before "
                f"it crashes at {self.at_us}"
            )

    @property
    def end_us(self) -> float:
        return self.restart_at_us if self.restart_at_us is not None else self.at_us

    def describe(self) -> str:
        tail = (
            f", restarted at {self.restart_at_us / 1000:.1f} ms"
            if self.restart_at_us is not None
            else " (permanent)"
        )
        return f"crash {self.switch} at {self.at_us / 1000:.1f} ms{tail}"


@dataclass(frozen=True)
class CreditLossBurst:
    """Drop flow-control (CREDIT) cells on one link for a while.

    Exercises the claim that the credit scheme is "robust in the face
    of lost flow-control messages" (section 5): lost credits shrink the
    window; resynchronization must restore it exactly.  Resync
    request/reply cells ride the CREDIT kind too and survive the burst.
    """

    kind: ClassVar[str] = "credit_loss"
    at_us: float
    a: str
    b: str
    duration_us: float = 20_000.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        _check_start(self)
        if self.duration_us <= 0:
            raise PlanError(f"burst duration must be positive, got {self.duration_us}")
        if not 0.0 < self.probability <= 1.0:
            raise PlanError(f"drop probability {self.probability} out of (0, 1]")

    @property
    def end_us(self) -> float:
        return self.at_us + self.duration_us

    def describe(self) -> str:
        return (
            f"drop credits on {self.a}<->{self.b} "
            f"(p={self.probability:.2f}) for {self.duration_us / 1000:.1f} ms "
            f"from {self.at_us / 1000:.1f} ms"
        )


@dataclass(frozen=True)
class ErrorRateStep:
    """Step a link's cell error rate; optionally step it back to zero."""

    kind: ClassVar[str] = "error_rate"
    at_us: float
    a: str
    b: str
    rate: float = 0.01
    until_us: Optional[float] = None

    def __post_init__(self) -> None:
        _check_start(self)
        if not 0.0 <= self.rate <= 1.0:
            raise PlanError(f"error rate {self.rate} out of [0, 1]")
        if self.until_us is not None and self.until_us <= self.at_us:
            raise PlanError(
                f"error step ends at {self.until_us} before it starts "
                f"at {self.at_us}"
            )

    @property
    def end_us(self) -> float:
        return self.until_us if self.until_us is not None else self.at_us

    def describe(self) -> str:
        tail = (
            f" until {self.until_us / 1000:.1f} ms"
            if self.until_us is not None
            else ""
        )
        return (
            f"error rate {self.rate:.3f} on {self.a}<->{self.b} "
            f"from {self.at_us / 1000:.1f} ms{tail}"
        )


@dataclass(frozen=True)
class ClockDriftStep:
    """A switch oscillator goes out of spec: step its rate mid-run.

    Section 4: buffer requirements in the asynchronous regime depend on
    "the variation in switch clock rates"; this event lets scenarios
    perturb exactly that.
    """

    kind: ClassVar[str] = "clock_drift"
    at_us: float
    switch: str
    drift_ppm: float = 100.0

    def __post_init__(self) -> None:
        _check_start(self)
        if 1.0 + self.drift_ppm * 1e-6 <= 0:
            raise PlanError(f"drift {self.drift_ppm} ppm gives non-positive rate")

    @property
    def end_us(self) -> float:
        return self.at_us

    def describe(self) -> str:
        return (
            f"step {self.switch} clock to {self.drift_ppm:+.0f} ppm "
            f"at {self.at_us / 1000:.1f} ms"
        )


FaultEvent = Union[
    LinkCut, LinkFlap, SwitchCrash, CreditLossBurst, ErrorRateStep,
    ClockDriftStep,
]

EVENT_KINDS = (
    LinkCut, LinkFlap, SwitchCrash, CreditLossBurst, ErrorRateStep,
    ClockDriftStep,
)


def _check_start(event) -> None:
    for item in fields(event):
        value = getattr(event, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise PlanError(
                f"{type(event).__name__}.{item.name}={value!r} must be finite"
            )
    if event.at_us < 0:
        raise PlanError(f"event scheduled before scenario start: {event.at_us}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted sequence of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, EVENT_KINDS):
                raise PlanError(f"not a fault event: {event!r}")
        ordered = tuple(sorted(self.events, key=lambda e: (e.at_us, e.kind)))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        return cls(tuple(events))

    @property
    def end_us(self) -> float:
        """When the last fault activity (including restores) is over."""
        return max((e.end_us for e in self.events), default=0.0)

    def describe(self) -> str:
        if not self.events:
            return "(empty plan)"
        return "\n".join(e.describe() for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)
