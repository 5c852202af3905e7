"""The skeptic: escalating hold-downs for flapping links.

Section 2: "Care must be taken that an intermittent fault does not cause a
link to make frequent transitions between the two states, for each
transition would trigger a reconfiguration, and too-frequent
reconfigurations can keep the network from providing service.  To prevent
this, a skeptic module in the software monitor retains a history of a
link's failures and recoveries.  If failures recur, the skeptic requires
an increasingly long period of correct operation before the link is
considered to be recovered."

The state machine (following Rodeheffer & Schroeder's Autonet design):

- ``WORKING``: the link is usable.  A failure report moves it to ``DEAD``
  and raises the skepticism level.
- ``DEAD``: the link is unusable.  A recovery report starts a probation
  timer of ``base_wait * 2**level`` (capped at ``max_level``); the link
  enters ``PROBATION``.
- ``PROBATION``: any failure sends it back to ``DEAD`` (and escalates);
  surviving the full probation period promotes it to ``WORKING``.

Skepticism decays: every ``decay_interval`` of uninterrupted ``WORKING``
operation reduces the level by one, so a link with ancient history is
eventually trusted quickly again.

The class is a pure state machine driven by explicit timestamps, so it can
be unit-tested exhaustively and property-tested against the "verdict
transitions are rare" invariant; the network layer wires it to real
monitor reports and simulator timers.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple


class LinkVerdict(enum.Enum):
    """The skeptic's published opinion -- what reconfiguration sees."""

    WORKING = "working"
    DEAD = "dead"


class _State(enum.Enum):
    WORKING = "working"
    DEAD = "dead"
    PROBATION = "probation"


class Skeptic:
    """Hold-down controller for one link's state.

    Args:
        base_wait_us: probation length at skepticism level 0.
        max_level: cap on the exponential escalation.
        decay_interval_us: working time required to shed one level.
        on_verdict: callback invoked with (verdict, timestamp) whenever the
            published verdict changes -- in AN2 this is what triggers a
            reconfiguration.
    """

    def __init__(
        self,
        base_wait_us: float = 10_000.0,
        max_level: int = 8,
        decay_interval_us: float = 1_000_000.0,
        on_verdict: Optional[Callable[[LinkVerdict, float], None]] = None,
    ) -> None:
        if base_wait_us <= 0:
            raise ValueError(f"base_wait_us must be positive, got {base_wait_us}")
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        self.base_wait_us = base_wait_us
        self.max_level = max_level
        self.decay_interval_us = decay_interval_us
        self.on_verdict = on_verdict
        self.level = 0
        self._state = _State.WORKING
        #: WORKING at level 0: :meth:`tick` and :meth:`report_recovery`
        #: would do nothing, so the monitor skips them.
        self.at_rest = True
        self._verdict = LinkVerdict.WORKING
        self._probation_ends: Optional[float] = None
        self._working_since: Optional[float] = 0.0
        self._last_decay: float = 0.0
        self.verdict_changes: List[Tuple[float, LinkVerdict]] = []
        self.failures_seen = 0
        # The machine stays pure (explicit timestamps, no simulator)
        # until an owner binds one to report its transitions to.
        self._sim = None
        self._component = ""
        self._port = -1

    def bind(self, sim, component: str, port: int) -> None:
        """Report transitions through ``sim.note`` as ``component``'s
        port ``port``."""
        self._sim = sim
        self._component = component
        self._port = port

    def _note(self, name: str, **fields) -> None:
        if self._sim is not None:
            self._sim.note(
                "reconfig", self._component, name,
                port=self._port, level=self.level, **fields,
            )

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> LinkVerdict:
        return self._verdict

    def probation_remaining(self, now: float) -> Optional[float]:
        """Microseconds of probation left, or ``None`` if not on probation."""
        if self._state is not _State.PROBATION or self._probation_ends is None:
            return None
        return max(0.0, self._probation_ends - now)

    def current_wait(self) -> float:
        """The probation the *next* recovery must survive."""
        return self.base_wait_us * (2 ** min(self.level, self.max_level))

    # ------------------------------------------------------------------
    # inputs from the link monitor
    # ------------------------------------------------------------------
    def report_failure(self, now: float) -> None:
        """The monitor observed the link misbehaving."""
        self._maybe_decay(now)
        self.failures_seen += 1
        if self._state is _State.DEAD:
            return  # nothing changes
        # A failure while working, or during probation (which proves
        # continued flakiness), escalates and kills the link.
        self._note("skeptic.failure", state=self._state.value)
        self.level = min(self.level + 1, self.max_level)
        self.at_rest = False
        if self._state is _State.WORKING:
            self._enter_dead(now)
        else:
            self._state = _State.DEAD
            self._probation_ends = None

    def report_recovery(self, now: float) -> None:
        """The monitor observed the link behaving correctly again."""
        if self._state is _State.DEAD:
            self._state = _State.PROBATION
            self._probation_ends = now + self.current_wait()
            self._note("skeptic.probation", until=self._probation_ends)

    def tick(self, now: float) -> None:
        """Advance timers: probation completion and skepticism decay.

        The owner calls this periodically (or at interesting times); the
        machine is robust to arbitrary call spacing.
        """
        if (
            self._state is _State.PROBATION
            and self._probation_ends is not None
            and now >= self._probation_ends
        ):
            self._state = _State.WORKING
            self._probation_ends = None
            self._working_since = now
            self._last_decay = now
            self.at_rest = self.level == 0
            self._publish(LinkVerdict.WORKING, now)
        self._maybe_decay(now)

    # ------------------------------------------------------------------
    def _enter_dead(self, now: float) -> None:
        self._state = _State.DEAD
        self._probation_ends = None
        self._working_since = None
        self._publish(LinkVerdict.DEAD, now)

    def _maybe_decay(self, now: float) -> None:
        if self._state is not _State.WORKING or self.decay_interval_us <= 0:
            return
        while (
            self.level > 0
            and now - self._last_decay >= self.decay_interval_us
        ):
            self.level -= 1
            self._last_decay += self.decay_interval_us
        self.at_rest = self.level == 0

    def _publish(self, verdict: LinkVerdict, now: float) -> None:
        if verdict is self._verdict:
            return
        self._verdict = verdict
        self.verdict_changes.append((now, verdict))
        self._note("skeptic.verdict", verdict=verdict.value)
        if self.on_verdict is not None:
            self.on_verdict(verdict, now)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Skeptic {self._state.value} level={self.level} "
            f"verdict={self._verdict.value}>"
        )
