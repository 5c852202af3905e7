"""Applying a fault plan to a live network and judging the outcome.

The :class:`ScenarioRunner` is the harness behind the paper's
pull-the-plug demo and its chaos-test generalization.  It:

1. boots the network and waits for initial convergence,
2. opens circuits and schedules deterministic traffic (payloads are
   recorded so the mis-assembly invariant can compare bytes); lost
   cells stay lost, as the paper leaves their recovery to the hosts,
3. translates every :class:`~repro.faults.plan.FaultPlan` event into
   simulator callbacks (the event kernel is not reentrant, so all
   orchestration happens *between* ``run`` calls, and fault actions are
   plain scheduled events),
4. runs past the last fault, waits for the network to settle, drains
   queues, and
5. evaluates the invariant suite (:mod:`repro.faults.invariants`).

Randomness discipline: every fault event that needs an RNG (credit-loss
bursts) draws from its own substream of ``net.streams.fork("faults")``,
keyed by the event's index and kind -- adding a fault to a plan never
perturbs the randomness seen by the others, and the whole scenario
replays exactly from the network seed.

Observability: each fault notes ``fault.<kind>.begin`` and, when its
window closes, ``fault.<kind>.end`` with the duration (``faults``
category and component, through ``Simulator.note``, so the flight
recorder and any tracer both hold the fault windows), and bumps a count
read by a gauge under the ``faults`` metrics node.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import parse_node_id
from repro.faults.invariants import (
    InvariantResult,
    check_all,
    iter_credit_endpoints,
)
from repro.faults.plan import (
    ClockDriftStep,
    CreditLossBurst,
    ErrorRateStep,
    FaultPlan,
    LinkCut,
    LinkFlap,
    SwitchCrash,
)
from repro.net.cell import Cell, CellKind
from repro.net.network import Network, NetworkError
from repro.net.node import validate_device_config
from repro.net.packet import Packet


class ScenarioError(ValueError):
    """The scenario could not even be staged (bad load, boot failure...)."""


@dataclass(frozen=True)
class TrafficLoad:
    """Steady packet traffic on one circuit for the scenario's duration."""

    source: str
    destination: str
    packet_size: int = 480
    interval_us: float = 2_000.0
    count: int = 50

    def __post_init__(self) -> None:
        try:
            validate_device_config(
                self, positive=("packet_size", "interval_us", "count")
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


@dataclass
class ScenarioResult:
    """Everything a scenario produced, plus the invariant verdicts."""

    plan: FaultPlan
    boot_us: float
    settled_at_us: Optional[float]
    finished_at_us: float
    invariants: List[InvariantResult]
    sent: Dict[int, List[Packet]]
    delivered: int
    faults_applied: int
    sampled_violations: List[str] = field(default_factory=list)
    #: path of the flight-recorder dump written because an invariant
    #: failed (``None`` when everything passed or no ``flight_dir`` set).
    flight_dump: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.invariants)

    @property
    def settle_after_last_fault_us(self) -> Optional[float]:
        """How long after the last fault activity the network settled."""
        if self.settled_at_us is None:
            return None
        return self.settled_at_us - (self.boot_us + self.plan.end_us)

    def report(self) -> str:
        lines = [
            f"plan ({len(self.plan)} events):",
            *("  " + line for line in self.plan.describe().splitlines()),
            f"boot converged at {self.boot_us / 1000:.1f} ms",
        ]
        if self.settled_at_us is not None:
            lines.append(
                f"settled at {self.settled_at_us / 1000:.1f} ms "
                f"({(self.settle_after_last_fault_us or 0) / 1000:.1f} ms "
                f"after last fault activity)"
            )
        else:
            lines.append("network did NOT settle after the last fault")
        total_sent = sum(len(p) for p in self.sent.values())
        lines.append(
            f"traffic: {total_sent} packets sent, {self.delivered} delivered"
        )
        lines.append("invariants:")
        lines.extend(f"  {result}" for result in self.invariants)
        verdict = "ALL GREEN" if self.passed else "VIOLATIONS FOUND"
        lines.append(f"verdict: {verdict}")
        if self.flight_dump is not None:
            lines.append(f"flight recorder dumped to {self.flight_dump}")
        return "\n".join(lines)


def _check_targets(net: Network, plan: FaultPlan) -> None:
    """Refuse a plan naming a switch or cable ``net`` does not have: a
    fault that hits nothing would leave every invariant green."""
    for event in plan:
        try:
            if isinstance(event, (SwitchCrash, ClockDriftStep)):
                if parse_node_id(event.switch) not in net.switches:
                    raise ValueError(f"no switch {event.switch!r}")
            else:
                net.link_between(event.a, event.b)
        except (NetworkError, ValueError) as exc:
            raise ScenarioError(
                f"{event.describe()}: {exc} in this network"
            ) from exc


#: What a fault sets on a cable and puts back when it ends.  Two events
#: of one family on a common cable in overlapping windows undo each
#: other: each restores what it saw when it began.
_FAMILIES = {
    LinkCut: "link state",
    LinkFlap: "link state",
    SwitchCrash: "link state",
    ErrorRateStep: "error rate",
    CreditLossBurst: "credit drop filter",
}


def _check_overlaps(net: Network, plan: FaultPlan) -> None:
    """Refuse two events of one family touching a common cable in
    overlapping windows (a permanent fault's window never closes)."""
    claims = []
    for event in plan:
        family = _FAMILIES.get(type(event))
        if family is None:
            continue
        if isinstance(event, SwitchCrash):
            node = parse_node_id(event.switch)
            cables = {
                id(link) for ((na, _), (nb, _)), link in net.links.items()
                if node in (na, nb)
            }
        else:
            cables = {id(net.link_between(event.a, event.b))}
        # Only the permanent kinds have end_us == at_us.
        end = event.end_us if event.end_us > event.at_us else math.inf
        for other, other_family, other_cables, other_end in claims:
            if (
                family == other_family
                and cables & other_cables
                and event.at_us <= other_end
                and other.at_us <= end
            ):
                raise ScenarioError(
                    f"{other.describe()} and {event.describe()} both set "
                    f"the {family} of one cable in overlapping windows"
                )
        claims.append((event, family, cables, end))


#: How often the runner checks the credit bounds during a scenario.
SAMPLE_INTERVAL_US = 10_000.0

#: The ``faults`` node's gauges, one per count the runner keeps.
_FAULT_COUNTS = (
    "events_applied",
    "link_cuts",
    "flap_transitions",
    "switch_crashes",
    "credit_bursts",
    "error_rate_steps",
    "clock_drift_steps",
    "credit_cells_dropped",
)


class ScenarioRunner:
    """Drives one :class:`FaultPlan` against one :class:`Network`."""

    def __init__(
        self,
        net: Network,
        plan: FaultPlan,
        loads: Sequence[TrafficLoad] = (),
        settle_us: float = 200_000.0,
        convergence_timeout_us: float = 2_000_000.0,
        flight_dir: Optional[str] = None,
    ) -> None:
        _check_targets(net, plan)
        _check_overlaps(net, plan)
        self.net = net
        self.plan = plan
        self.loads = tuple(loads)
        self.settle_us = settle_us
        self.convergence_timeout_us = convergence_timeout_us
        if flight_dir is None:
            flight_dir = os.environ.get("REPRO_FLIGHT_DIR") or None
        #: directory for flight-recorder dumps on invariant failure (and,
        #: via the recorder's ``auto_dump_dir``, on kernel exceptions);
        #: ``None`` disables dumping.  Defaults to ``$REPRO_FLIGHT_DIR``.
        self.flight_dir = flight_dir
        recorder = net.sim.recorder
        if recorder is not None and flight_dir:
            recorder.auto_dump_dir = flight_dir
        self._streams = net.streams.fork("faults")
        self.counts: Dict[str, int] = dict.fromkeys(_FAULT_COUNTS, 0)
        probes = net.registry.node("faults")
        for name in _FAULT_COUNTS:
            probes.gauge(name, lambda name=name: self.counts[name])
        self.sent: Dict[int, List[Packet]] = {}
        self.sampled_violations: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # the fault log
    # ------------------------------------------------------------------
    def _note(self, name: str, **fields) -> None:
        self.net.sim.note("faults", "faults", name, **fields)

    def _begin(self, name: str, **fields) -> Callable[..., None]:
        """Note ``<name>.begin`` now; returns the call that notes its
        ``<name>.end``, with the window's duration, when it closes."""
        began = self.net.now
        self._note(f"{name}.begin", **fields)

        def end(**end_fields) -> None:
            self._note(
                f"{name}.end", duration=self.net.now - began, **end_fields
            )

        return end

    def _count(self, name: str) -> None:
        self.counts[name] += 1
        self.counts["events_applied"] += 1

    # ------------------------------------------------------------------
    # fault application (all run as scheduled simulator events)
    # ------------------------------------------------------------------
    def _schedule_plan(self, t0: float) -> None:
        for index, event in enumerate(self.plan):
            apply = {
                LinkCut: self._apply_link_cut,
                LinkFlap: self._apply_link_flap,
                SwitchCrash: self._apply_switch_crash,
                CreditLossBurst: self._apply_credit_burst,
                ErrorRateStep: self._apply_error_step,
                ClockDriftStep: self._apply_clock_drift,
            }[type(event)]
            self.net.sim.schedule_at(t0 + event.at_us, apply, t0, index, event)

    def _apply_link_cut(self, t0: float, index: int, event: LinkCut) -> None:
        link = self.net.link_between(event.a, event.b)
        end = self._begin("fault.link_cut", a=event.a, b=event.b, index=index)
        self._count("link_cuts")
        link.fail()
        if event.restore_at_us is not None:
            def restore() -> None:
                link.restore()
                end(restored=True)
            self.net.sim.schedule_at(t0 + event.restore_at_us, restore)
        else:
            self._undo.append(lambda: end(restored=False))

    def _apply_link_flap(self, t0: float, index: int, event: LinkFlap) -> None:
        link = self.net.link_between(event.a, event.b)
        end = self._begin(
            "fault.link_flap", a=event.a, b=event.b, flaps=event.flaps,
            index=index,
        )
        period = event.down_us + event.up_us
        for flap in range(event.flaps):
            down_at = t0 + event.at_us + flap * period
            up_at = down_at + event.down_us
            last = flap == event.flaps - 1
            self.net.sim.schedule_at(
                down_at, self._flap_transition, link, False, None
            )
            self.net.sim.schedule_at(
                up_at, self._flap_transition, link, True, end if last else None
            )

    def _flap_transition(self, link, up: bool, end) -> None:
        """One flap edge; ``end`` closes the fault at its last restore."""
        self._count("flap_transitions")
        self._note("fault.flap", link=link.label, up=up)
        if up:
            link.restore()
        else:
            link.fail()
        if end is not None:
            end()

    def _apply_switch_crash(
        self, t0: float, index: int, event: SwitchCrash
    ) -> None:
        end = self._begin("fault.switch_crash", switch=event.switch, index=index)
        self._count("switch_crashes")
        failed = self.net.crash_switch(event.switch)
        self._note("fault.switch_crash.links", count=len(failed))
        if event.restart_at_us is not None:
            def restart() -> None:
                self.net.restore_switch(event.switch)
                end(restarted=True)
            self.net.sim.schedule_at(t0 + event.restart_at_us, restart)
        else:
            self._undo.append(lambda: end(restarted=False))

    def _apply_credit_burst(
        self, t0: float, index: int, event: CreditLossBurst
    ) -> None:
        link = self.net.link_between(event.a, event.b)
        rng = self._streams.stream(f"{index}.credit_loss")
        end = self._begin(
            "fault.credit_loss", a=event.a, b=event.b,
            probability=event.probability, index=index,
        )
        self._count("credit_bursts")
        previous = link.drop_filter
        counts = self.counts

        def burst_filter(cell: Cell) -> bool:
            if previous is not None and previous(cell):
                return True
            if cell.kind is not CellKind.CREDIT:
                return False
            if not isinstance(cell.payload, int):
                # Resync request/reply cells ride the CREDIT kind; only
                # plain credit grants are lost, so the recovery
                # protocol itself survives the burst.
                return False
            if rng.random() < event.probability:
                counts["credit_cells_dropped"] += 1
                return True
            return False

        link.drop_filter = burst_filter

        def end_burst() -> None:
            link.drop_filter = previous
            end(credits_dropped=counts["credit_cells_dropped"])

        self.net.sim.schedule_at(t0 + event.end_us, end_burst)

    def _apply_error_step(
        self, t0: float, index: int, event: ErrorRateStep
    ) -> None:
        link = self.net.link_between(event.a, event.b)
        previous = link.error_rate
        end = self._begin(
            "fault.error_rate", a=event.a, b=event.b, rate=event.rate,
            index=index,
        )
        self._count("error_rate_steps")
        link.set_error_rate(event.rate)
        if event.until_us is not None:
            def end_step() -> None:
                link.set_error_rate(previous)
                end(corrupted=link.cells_corrupted)
            self.net.sim.schedule_at(t0 + event.until_us, end_step)
        else:
            self._undo.append(end)

    def _apply_clock_drift(
        self, t0: float, index: int, event: ClockDriftStep
    ) -> None:
        switch = self.net.switch(event.switch)
        self._count("clock_drift_steps")
        self._note(
            "fault.clock_drift", switch=event.switch,
            drift_ppm=event.drift_ppm, index=index,
        )
        switch.set_clock_drift(event.drift_ppm)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def _open_circuits(self) -> List[int]:
        """Establish one circuit per load (advances simulated time)."""
        vcs: List[int] = []
        for load in self.loads:
            circuit = self.net.setup_circuit(load.source, load.destination)
            self.sent[circuit.vc] = []
            vcs.append(circuit.vc)
        return vcs

    def _schedule_traffic(self, t0: float, vcs: List[int]) -> None:
        for load_index, (vc, load) in enumerate(zip(vcs, self.loads)):
            rng = self._streams.stream(f"traffic.{load_index}")
            for k in range(load.count):
                at = t0 + k * load.interval_us
                self.net.sim.schedule_at(at, self._send_one, vc, load, rng)

    def _send_one(self, vc: int, load: TrafficLoad, rng) -> None:
        host = self.net.host(load.source)
        if vc not in host.senders:
            return  # circuit was torn down by the scenario
        payload = bytes(rng.randrange(256) for _ in range(load.packet_size))
        packet = Packet(
            source=host.node_id,
            destination=host.senders[vc].destination,
            payload=payload,
        )
        self.sent[vc].append(packet)
        host.send_packet(vc, packet)

    # ------------------------------------------------------------------
    # mid-run sampling
    # ------------------------------------------------------------------
    def _sample(self) -> None:
        """Invariants that must hold DURING the run, not just at the end:
        no credit balance ever leaves [0, allocation] (the clamp fix),
        and no downstream buffer pool overflows (losslessness)."""
        def violation(endpoint, vc, what: str) -> None:
            self.sampled_violations.append(
                f"t={self.net.now:.0f}us {endpoint.port.label}/vc{vc}: {what}"
            )

        for endpoint in iter_credit_endpoints(self.net):
            for vc, upstream in endpoint.upstream.items():
                if not 0 <= upstream.balance <= upstream.allocation:
                    violation(endpoint, vc, f"balance {upstream.balance}")
            for vc, downstream in endpoint.downstream.items():
                if downstream.overflows:
                    violation(
                        endpoint, vc,
                        f"{downstream.overflows} buffer overflows",
                    )

    def _schedule_samples(self, t0: float, horizon: float) -> None:
        t = t0 + SAMPLE_INTERVAL_US
        while t < horizon:
            self.net.sim.schedule_at(t, self._sample)
            t += SAMPLE_INTERVAL_US

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute the scenario end to end and judge it."""
        net = self.net
        net.start()
        try:
            boot_us = net.run_until(
                net.fully_reconfigured, timeout_us=self.convergence_timeout_us
            )
        except NetworkError as exc:
            raise ScenarioError(f"network never booted: {exc}") from exc

        end_scenario = self._begin(
            "scenario", events=len(self.plan), loads=len(self.loads)
        )
        vcs = self._open_circuits()  # advances simulated time
        t0 = net.now
        self._schedule_traffic(t0, vcs)
        self._schedule_plan(t0)
        horizon = t0 + self.plan.end_us + self.settle_us
        self._schedule_samples(t0, horizon)
        net.run(horizon - net.now)

        settled_at: Optional[float] = None
        try:
            settled_at = net.run_until(
                net.fully_reconfigured, timeout_us=self.convergence_timeout_us
            )
        except NetworkError:
            pass  # convergence invariant will report the failure
        # Drain: let queued cells, credits, and resync rounds finish.
        net.run(self.settle_us)
        self._sample()
        for undo in self._undo:
            undo()
        end_scenario(settled=settled_at is not None)

        invariants = check_all(net, self.sent, settled_at)
        if self.sampled_violations:
            invariants.append(
                InvariantResult(
                    "credit bounds held throughout (sampled)",
                    False,
                    "; ".join(self.sampled_violations[:5]),
                )
            )
        else:
            invariants.append(
                InvariantResult(
                    "credit bounds held throughout (sampled)",
                    True,
                    f"sampled every {SAMPLE_INTERVAL_US / 1000:.0f} ms",
                )
            )
        delivered = sum(len(h.delivered) for h in net.hosts.values())
        flight_dump: Optional[str] = None
        failed = [r.name for r in invariants if not r.passed]
        recorder = net.sim.recorder
        if failed and recorder is not None and self.flight_dir:
            from repro.obs.flight import next_dump_path

            path = next_dump_path(self.flight_dir, "invariant-violation")
            flight_dump = str(
                recorder.dump(
                    path,
                    reason="invariant violation: " + "; ".join(failed[:3]),
                )
            )
        return ScenarioResult(
            plan=self.plan,
            boot_us=boot_us,
            settled_at_us=settled_at,
            finished_at_us=net.now,
            invariants=invariants,
            sent=self.sent,
            delivered=delivered,
            faults_applied=self.counts["events_applied"],
            sampled_violations=self.sampled_violations,
            flight_dump=flight_dump,
        )
