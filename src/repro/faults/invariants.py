"""Post-scenario invariant checks.

A fault scenario is only a reproduction of the paper's claims if the
network *provably* recovered.  Four checks, each mapped to a claim:

- **convergence** -- "The network reconfigures in less than 200
  milliseconds" (section 1): after the last fault clears, the largest
  working partition settles on ONE epoch whose distributed view matches
  physical reality.
- **skeptic bound** -- "too-frequent reconfigurations can keep the
  network from providing service" (section 2): under any flap train,
  each skeptic's published verdict changes at most a computable number
  of times, because probation periods escalate geometrically.
- **credit conservation** -- the scheme is "robust in the face of lost
  flow-control messages" (section 5): at quiescence every surviving
  credit balance equals the value derived from the cumulative
  sent/freed counters (resynchronization restored exactly what was
  lost; duplicated credits were clamped, not banked).
- **no silent mis-assembly** -- cells are dropped, never corrupted into
  plausible packets: every delivered packet is byte-identical to what
  was sent, no packet is delivered twice, and every missing packet is
  accounted for by observed loss.

Each check returns an :class:`InvariantResult`; the runner aggregates
them into the scenario verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.network import Network
from repro.net.packet import Packet


@dataclass
class InvariantResult:
    """One checked invariant: a verdict and a human-readable account."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


# ======================================================================
# skeptic verdict-change bound
# ======================================================================
def max_verdict_changes(
    duration_us: float,
    base_wait_us: float,
    max_level: int,
    decay_interval_us: float = float("inf"),
) -> int:
    """An upper bound on published verdict changes in ``duration_us``.

    The skeptic publishes WORKING only after surviving a probation of
    ``base_wait * 2**min(level, max_level)``, and every DEAD->WORKING->
    DEAD round trip raises the level (until decay).  So the k-th
    re-admission costs at least the k-th escalating probation, and the
    number of round trips that fit in a window is logarithmic in its
    length.  Decay can shed at most one level per ``decay_interval_us``
    of WORKING time, each refund worth at most one extra round trip.

    This is deliberately conservative (ping/timeout latencies are
    ignored); the property test drives adversarial flap trains against
    it and the scenario checker applies it to every skeptic in the
    network.
    """
    if duration_us <= 0:
        return 1
    # One initial WORKING->DEAD publish can happen immediately.
    changes = 1
    elapsed = 0.0
    level = 1  # level after the first failure
    while True:
        wait = base_wait_us * (2 ** min(level, max_level))
        elapsed += wait
        if elapsed > duration_us:
            break
        # Survived a probation (DEAD->WORKING) and failed again
        # (WORKING->DEAD): two more published changes.
        changes += 2
        level += 1
        if level > max_level + 64:  # fully saturated; count linearly
            remaining = duration_us - elapsed
            wait = base_wait_us * (2 ** max_level)
            changes += 2 * int(remaining / wait)
            break
    if decay_interval_us and decay_interval_us != float("inf"):
        # Each decay interval of working time can shed one level,
        # enabling at most one cheaper extra round trip.
        changes += 2 * int(duration_us / decay_interval_us)
    # The final probation may complete just inside the window.
    return changes + 1


def _all_skeptics(net: Network):
    """(component-label, skeptic) for every skeptic in the network."""
    for switch in net.switches.values():
        for card in switch.cards:
            if card.skeptic is not None:
                yield f"{switch.node_id}.p{card.index}", card.skeptic
    for host in net.hosts.values():
        for index, monitor in host.monitors.items():
            yield f"{host.node_id}.p{index}", monitor.skeptic


def check_skeptic_bounded(net: Network) -> InvariantResult:
    """No skeptic changed its published verdict more than the bound allows."""
    duration = net.now
    worst_label, worst_count, worst_bound = "", 0, 0
    offenders: List[str] = []
    for label, skeptic in _all_skeptics(net):
        bound = max_verdict_changes(
            duration,
            skeptic.base_wait_us,
            skeptic.max_level,
            skeptic.decay_interval_us,
        )
        count = len(skeptic.verdict_changes)
        if count > worst_count:
            worst_label, worst_count, worst_bound = label, count, bound
        if count > bound:
            offenders.append(f"{label}: {count} > {bound}")
    if offenders:
        return InvariantResult(
            "skeptic verdict rate bounded", False, "; ".join(offenders)
        )
    detail = (
        f"worst skeptic {worst_label}: {worst_count} changes "
        f"(bound {worst_bound})"
        if worst_label
        else "no verdict changes anywhere"
    )
    return InvariantResult("skeptic verdict rate bounded", True, detail)


# ======================================================================
# convergence
# ======================================================================
def check_convergence(
    net: Network, settled_at_us: Optional[float]
) -> InvariantResult:
    """The main partition holds ONE epoch and its view matches reality."""
    if not net.fully_reconfigured():
        return InvariantResult(
            "reconfiguration converged",
            False,
            "main component never settled on a reality-matching view",
        )
    component = net.main_component_switches()
    tags = {net.switches[s].reconfig.view_tag for s in component}
    if len(tags) != 1:
        return InvariantResult(
            "reconfiguration converged",
            False,
            f"main component split across epochs: {sorted(map(str, tags))}",
        )
    tag = next(iter(tags))
    settle = (
        f", settled at {settled_at_us / 1000:.1f} ms"
        if settled_at_us is not None
        else ""
    )
    return InvariantResult(
        "reconfiguration converged",
        True,
        f"{len(component)} switches share epoch {tag}{settle}",
    )


# ======================================================================
# credit conservation
# ======================================================================
def iter_credit_endpoints(net: Network):
    """Every port's credit endpoint, switches then hosts."""
    for node in (*net.switches.values(), *net.hosts.values()):
        yield from node.credits


def _iter_credit_pairs(net: Network):
    """(label, upstream, downstream_freed_total) for every pairable VC.

    A window lives at the port a circuit *departs* through; the matching
    buffer pool is at the peer port's endpoint, whichever kind of node
    owns it.  Pairs whose link is down, or whose peer has no matching
    pool (the route moved during the scenario), yield ``None`` for the
    freed count.
    """
    for endpoint in iter_credit_endpoints(net):
        port = endpoint.port
        peer = port.peer()
        paired = peer is not None and port.link.working
        pools = peer.node.credits[peer.index].downstream if paired else {}
        for vc, upstream in endpoint.upstream.items():
            pool = pools.get(vc)
            yield (
                f"{port.label}/vc{vc}",
                upstream,
                pool.buffers_freed if pool is not None else None,
            )


def check_credit_conservation(
    net: Network, exact: Optional[bool] = None
) -> InvariantResult:
    """At quiescence every balance equals the counter-derived value.

    ``exact=None`` auto-detects: the exact check needs periodic
    resynchronization (otherwise a lost credit legitimately leaves the
    balance low forever) -- without it only the bounds
    ``0 <= balance <= allocation`` are enforced.
    """
    if exact is None:
        exact = all(
            s.config.resync_interval_us > 0 for s in net.switches.values()
        ) and bool(net.switches)
    checked = skipped = 0
    violations: List[str] = []
    total_excess = 0
    for label, upstream, freed in _iter_credit_pairs(net):
        total_excess += upstream.excess_credits
        if not 0 <= upstream.balance <= upstream.allocation:
            violations.append(
                f"{label}: balance {upstream.balance} outside "
                f"[0, {upstream.allocation}]"
            )
            continue
        if freed is None:
            skipped += 1
            continue
        expected = upstream.allocation - (upstream.cells_sent - freed)
        if not 0 <= expected <= upstream.allocation:
            # Counters from different incarnations of the circuit (the
            # route moved mid-scenario); no pairing exists to check.
            skipped += 1
            continue
        checked += 1
        if exact and upstream.balance != expected:
            violations.append(
                f"{label}: balance {upstream.balance} != "
                f"allocation {upstream.allocation} - in flight "
                f"({upstream.cells_sent} sent - {freed} freed)"
            )
    if violations:
        return InvariantResult(
            "credit conservation", False, "; ".join(violations[:5])
        )
    mode = "exact" if exact else "bounds-only (no resync configured)"
    return InvariantResult(
        "credit conservation",
        True,
        f"{checked} balances {mode}, {skipped} unpairable skipped, "
        f"{total_excess} excess credits clamped",
    )


# ======================================================================
# no silent mis-assembly
# ======================================================================
def check_no_misassembly(
    net: Network, sent: Dict[int, List[Packet]]
) -> InvariantResult:
    """Delivered payloads are byte-exact; losses are visible, not silent.

    ``sent`` maps VC -> packets the scenario's traffic generator
    injected (payloads recorded at send time).
    """
    sent_by_uid = {p.uid: p for packets in sent.values() for p in packets}
    delivered_uids: Dict[int, Packet] = {}
    duplicates = 0
    corrupted: List[int] = []
    for host in net.hosts.values():
        for packet in host.delivered:
            if packet.uid in delivered_uids:
                duplicates += 1
                continue
            delivered_uids[packet.uid] = packet
            original = sent_by_uid.get(packet.uid)
            if original is not None and packet.payload != original.payload:
                corrupted.append(packet.uid)
    missing = [uid for uid in sent_by_uid if uid not in delivered_uids]
    # A missing packet is fine IF the network can show where it died:
    # reassembly errors, cells lost on dead links, cells corrupted by
    # error injection, or cells still queued/buffered at quiescence.
    observed_loss = (
        sum(h.reassembly_errors for h in net.hosts.values())
        + sum(h.queued_cells() for h in net.hosts.values())
        + sum(
            h.reassembler.pending_cells(vc)
            for h in net.hosts.values()
            for vc in sent
        )
        + net.total_cells_dropped()
        + sum(link.cells_corrupted for link in net.links.values())
        + sum(
            card.buffered_cells()
            for s in net.switches.values()
            for card in s.cards
        )
    )
    problems: List[str] = []
    if corrupted:
        problems.append(f"{len(corrupted)} corrupted payloads (uids {corrupted[:5]})")
    if duplicates:
        problems.append(f"{duplicates} duplicate deliveries")
    if missing and observed_loss == 0:
        problems.append(
            f"{len(missing)} packets vanished with no observed loss"
        )
    if problems:
        return InvariantResult("no silent mis-assembly", False, "; ".join(problems))
    return InvariantResult(
        "no silent mis-assembly",
        True,
        f"{len(delivered_uids)} delivered byte-exact, {len(missing)} lost "
        f"(all accounted: {observed_loss} cells of observed loss)",
    )


# ======================================================================
def check_all(
    net: Network,
    sent: Dict[int, List[Packet]],
    settled_at_us: Optional[float],
    conservation_exact: Optional[bool] = None,
    extra_invariants: Optional[List[InvariantResult]] = None,
) -> List[InvariantResult]:
    """Run every scenario invariant; order is the reporting order.

    ``extra_invariants`` appends pre-computed results (a loss-recovery
    solution's own checks) after the core suite.
    """
    results = [
        check_convergence(net, settled_at_us),
        check_skeptic_bounded(net),
        check_credit_conservation(net, exact=conservation_exact),
        check_no_misassembly(net, sent),
    ]
    if extra_invariants:
        results.extend(extra_invariants)
    return results
