"""Differential oracles: reference vs kernel, AN1 vs AN2.

Four families of cross-checks, each reporting the *first* divergence it
finds as a :class:`Divergence` (never just a boolean -- a conformance
failure must say exactly where the implementations disagreed):

- **Matchers** -- :func:`compare_matchers` drives a reference scheduler
  (:class:`~repro.conform.reference.ParallelIterativeMatcher`,
  :class:`~repro.conform.reference.IslipMatcher`) and its bitmask
  counterpart cell by cell through two identically-fed fabrics from
  identical seeds, comparing every slot's full matching.  The reference
  fabric builds its requests from the queues, so this checks the kernel
  *and* the :class:`~repro.switch.crossbar.Crossbar`'s maintained
  request matrix against the set-based path in one sweep.
- **Routing** -- :func:`compare_routing` builds the same up*/down*
  orientation twice over a shared topology and cross-checks AN1's
  hop-by-hop forwarding (``next_hop`` with the gone-down bit, the
  :class:`~repro.switch.an1.An1Switch` discipline) against AN2's
  end-to-end ``shortest_legal_path`` for every switch pair: the walk
  must terminate, stay legal, and be exactly as short as the end-to-end
  path; and the end-to-end answer must be identical across independently
  constructed orientations (no hash-order sensitivity).
- **Slot driver** -- :func:`compare_slot_driver` runs the digest gate's
  replay scenario on the default ``Network`` (fabric-wide slot wave) and
  with every switch detached onto its private slot timer: same traffic
  outcomes, strictly fewer kernel events.
- **Parking** -- :func:`compare_parking` runs a whole-``Network`` case
  with the slot wave walking only the switches that can move a cell and
  with it walking every armed switch at every wave: the same kernel
  events to the ``(time, seq, callback)`` and the same end state.

:func:`matcher_sweep` / :func:`routing_sweep` run these over a seeded
grid of sizes and load patterns and also return plain-data records
(including a hash of every slot's matching) suitable for committing as a
regression corpus.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.conform.reference import IslipMatcher, ParallelIterativeMatcher
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim, MatchResult
from repro.core.routing.updown import UpDownOrientation
from repro.net.topology import Topology
from repro.sim.random import derived_stream
from repro.switch.fabric import VoqFabric
from repro.traffic.arrivals import (
    ArrivalProcess,
    BernoulliUniform,
    BurstyOnOff,
    Hotspot,
    Permutation,
)


@dataclass(frozen=True)
class Divergence:
    """The first point where two implementations disagreed."""

    kind: str        # "matcher", "routing" or "fastpath"
    pair: str        # e.g. "pim", "an1-vs-an2", "slot-driver"
    seed: int
    size: int        # fabric ports / topology switches
    case: str        # load pattern name / "src->dst" switch pair
    round: int       # slot index / hop index
    port: int        # first divergent input port (-1 when not port-shaped)
    reference: Any   # what the reference produced there
    candidate: Any   # what the implementation under test produced

    def __str__(self) -> str:
        return (
            f"{self.kind}:{self.pair} diverged (seed={self.seed}, "
            f"size={self.size}, case={self.case}) at round {self.round} "
            f"port {self.port}: reference={self.reference!r} "
            f"candidate={self.candidate!r}"
        )


# ======================================================================
# matcher differential
# ======================================================================
MATCHER_KINDS = ("pim", "islip")

#: pattern name -> factory(n_ports, rng) for the sweep's load patterns.
PATTERNS: Dict[str, Callable[[int, random.Random], ArrivalProcess]] = {
    "bernoulli-0.6": lambda n, rng: BernoulliUniform(n, 0.6, rng=rng),
    "bernoulli-0.95": lambda n, rng: BernoulliUniform(n, 0.95, rng=rng),
    "hotspot": lambda n, rng: Hotspot(
        n, 0.8, hot_output=0, hot_fraction=0.5, rng=rng
    ),
    "bursty": lambda n, rng: BurstyOnOff(n, 0.7, mean_burst=8.0, rng=rng),
    "permutation": lambda n, rng: Permutation(n, 0.9, rng=rng),
}


def _seeded_rng(label: str, seed: int) -> random.Random:
    return derived_stream(f"conform.oracle/{label}", seed)


def _build_pair(kind: str, n_ports: int, seed: int):
    """(reference fabric, candidate fabric) with identically-seeded RNGs."""
    if kind == "pim":
        reference = VoqFabric(
            n_ports,
            ParallelIterativeMatcher(
                n_ports, iterations=3, rng=_seeded_rng("pim", seed)
            ),
        )
        candidate = VoqFabric(
            n_ports,
            BitmaskPim(n_ports, iterations=3, rng=_seeded_rng("pim", seed)),
        )
    elif kind == "islip":
        reference = VoqFabric(n_ports, IslipMatcher(n_ports, iterations=3))
        candidate = VoqFabric(n_ports, BitmaskIslip(n_ports, iterations=3))
    else:
        raise ValueError(f"unknown matcher kind {kind!r}")
    return reference, candidate


def _first_divergent_port(
    ref: MatchResult, cand: MatchResult
) -> Tuple[int, Optional[int], Optional[int]]:
    """(port, reference grant, candidate grant) at the lowest divergent input."""
    for port in sorted(set(ref.matching) | set(cand.matching)):
        ref_grant = ref.matching.get(port)
        cand_grant = cand.matching.get(port)
        if ref_grant != cand_grant:
            return port, ref_grant, cand_grant
    return -1, None, None


def compare_matchers(
    kind: str,
    n_ports: int,
    seed: int,
    pattern: str,
    n_slots: int = 200,
) -> Tuple[Optional[Divergence], str]:
    """Drive reference and bitmask fabrics cell-by-cell from one seed.

    Returns ``(divergence, matchings_hash)`` where ``divergence`` is
    ``None`` on full agreement and ``matchings_hash`` is a SHA-256 over
    every slot's reference matching -- the value the regression corpus
    pins.
    """
    reference, candidate = _build_pair(kind, n_ports, seed)
    traffic = PATTERNS[pattern](
        n_ports, _seeded_rng(f"traffic/{pattern}", seed)
    )
    matchings = hashlib.sha256()
    for slot in range(n_slots):
        arrivals = traffic.arrivals(slot)
        for input_port, output_port in arrivals:
            reference.offer(input_port, output_port, slot)
            candidate.offer(input_port, output_port, slot)
        ref_result = reference.step(slot)
        cand_result = candidate.step(slot)
        matchings.update(
            repr(sorted(ref_result.matching.items())).encode("utf-8")
        )
        if ref_result.matching != cand_result.matching:
            port, ref_grant, cand_grant = _first_divergent_port(
                ref_result, cand_result
            )
            return (
                Divergence(
                    kind="matcher",
                    pair=kind,
                    seed=seed,
                    size=n_ports,
                    case=pattern,
                    round=slot,
                    port=port,
                    reference=ref_grant,
                    candidate=cand_grant,
                ),
                matchings.hexdigest(),
            )
    return None, matchings.hexdigest()


def matcher_sweep(
    seeds: Sequence[int],
    sizes: Sequence[int] = (4, 8, 16),
    n_slots: int = 200,
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """The full differential grid over every matcher kind and load
    pattern.  Returns (divergences, corpus records)."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for kind in MATCHER_KINDS:
        for n_ports in sizes:
            for pattern in PATTERNS:
                for seed in seeds:
                    divergence, matchings_hash = compare_matchers(
                        kind, n_ports, seed, pattern, n_slots=n_slots
                    )
                    if divergence is not None:
                        divergences.append(divergence)
                    records.append(
                        {
                            "kind": kind,
                            "n_ports": n_ports,
                            "pattern": pattern,
                            "seed": seed,
                            "n_slots": n_slots,
                            "matchings_sha256": matchings_hash,
                            "agreed": divergence is None,
                        }
                    )
    return divergences, records


# ======================================================================
# routing differential (AN1 hop-by-hop vs AN2 end-to-end)
# ======================================================================
def _an1_walk(
    orientation: UpDownOrientation, source, destination, max_hops: int
):
    """Hop-by-hop forwarding with the gone-down bit (AN1 discipline).

    Returns (nodes, edges) on success or the hop index where forwarding
    returned no legal continuation.
    """
    nodes = [source]
    edges = []
    here = source
    gone_down = False
    for _ in range(max_hops):
        if here == destination:
            return nodes, edges
        hop = orientation.next_hop(here, destination, gone_down)
        if hop is None:
            return len(edges)
        neighbor, edge = hop
        if not orientation.is_up_traversal(edge, here):
            gone_down = True
        nodes.append(neighbor)
        edges.append(edge)
        here = neighbor
    return len(edges)


def compare_routing(
    seed: int, n_switches: int = 8, extra_edges: int = 4
) -> Tuple[Optional[Divergence], str]:
    """Cross-check AN1 and AN2 routing over one shared random topology.

    For every ordered switch pair: AN1's hop-by-hop walk must terminate,
    stay up*/down*-legal, and use exactly as many hops as AN2's
    end-to-end shortest legal path; and a second, independently
    constructed orientation must produce the identical end-to-end path
    (construction-order / hash-order insensitivity).  Returns
    ``(divergence, paths_hash)`` with a SHA-256 over every end-to-end
    path for the regression corpus.
    """
    topo = Topology.random_connected(
        n_switches,
        extra_edges=extra_edges,
        rng=_seeded_rng("routing/topology", seed),
    )
    view = topo.view()
    switches = view.switches()
    root = switches[0]
    orientation = UpDownOrientation(view, root)
    shadow = UpDownOrientation(view, root)  # independently constructed
    paths_hash = hashlib.sha256()
    max_hops = 4 * n_switches
    for src in switches:
        for dst in switches:
            if src == dst:
                continue
            case = f"{src}->{dst}"
            an2 = orientation.shortest_legal_path(src, dst)
            an2_shadow = shadow.shortest_legal_path(src, dst)
            if an2 is None or an2_shadow is None or an2 != an2_shadow:
                return (
                    Divergence(
                        kind="routing",
                        pair="an2-determinism",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=0,
                        port=-1,
                        reference=None if an2 is None else [str(n) for n in an2[0]],
                        candidate=(
                            None if an2_shadow is None
                            else [str(n) for n in an2_shadow[0]]
                        ),
                    ),
                    paths_hash.hexdigest(),
                )
            paths_hash.update(
                ("|".join(str(n) for n in an2[0])).encode("utf-8")
            )
            paths_hash.update(b"\x00")
            an1 = _an1_walk(orientation, src, dst, max_hops)
            if isinstance(an1, int):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=an1,
                        port=-1,
                        reference=[str(n) for n in an2[0]],
                        candidate="no legal continuation",
                    ),
                    paths_hash.hexdigest(),
                )
            an1_nodes, an1_edges = an1
            if not orientation.path_is_legal(an1_nodes, an1_edges):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=len(an1_edges),
                        port=-1,
                        reference="legal path",
                        candidate=[str(n) for n in an1_nodes],
                    ),
                    paths_hash.hexdigest(),
                )
            if len(an1_edges) != len(an2[1]):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=len(an1_edges),
                        port=-1,
                        reference=len(an2[1]),
                        candidate=len(an1_edges),
                    ),
                    paths_hash.hexdigest(),
                )
    return None, paths_hash.hexdigest()


def routing_sweep(
    seeds: Sequence[int],
    sizes: Sequence[int] = (5, 8, 12),
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """Routing cross-checks over a grid of random topologies."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for n_switches in sizes:
        for seed in seeds:
            divergence, paths_hash = compare_routing(
                seed, n_switches=n_switches, extra_edges=max(2, n_switches // 2)
            )
            if divergence is not None:
                divergences.append(divergence)
            records.append(
                {
                    "kind": "routing",
                    "n_switches": n_switches,
                    "seed": seed,
                    "paths_sha256": paths_hash,
                    "agreed": divergence is None,
                }
            )
    return divergences, records


# ======================================================================
# slot-driver differential (fabric-wide wave vs private slot timers)
# ======================================================================
def _scrub_tick_phase(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the fields the slot driver is allowed to change.

    Wave coalescing re-phases per-switch slot timers onto one fabric-wide
    tick and replaces N timer events with one, so ``slot_index`` and
    ``events_executed`` differ by design; every traffic-visible outcome
    (forwarding counts, queue occupancy, credits, epochs, link and host
    state) must be byte-identical.
    """
    scrubbed = dict(fingerprint)
    scrubbed.pop("events_executed", None)
    scrubbed["switches"] = [
        dict(switch, slot_index=0) for switch in scrubbed["switches"]
    ]
    return scrubbed


def compare_slot_driver(
    seed: int = 0, duration_us: float = 40_000.0
) -> Tuple[Optional[Divergence], Dict[str, Any]]:
    """Run the replay scenario on private slot timers and on the wave.

    Builds the digest gate's
    :func:`~repro.conform.digest.replay_network` twice: the reference
    has every switch detached from the network's slot driver right after
    construction (``_slot_driver`` cleared, so ``_kick`` arms the
    per-switch timer), the candidate is the default ``Network``.
    Compares the end-of-run
    :func:`~repro.conform.digest.fingerprint_network` with the tick phase
    scrubbed (see :func:`_scrub_tick_phase`).  The wave must also
    *reduce* the kernel event count -- that is the whole point of
    coalescing -- so equal-or-more events is reported as a divergence
    too.  Returns ``(divergence, record)``.
    """
    from repro.conform.digest import (
        canonical_bytes,
        fingerprint_network,
        replay_network,
        run_replay_traffic,
    )

    def run_scenario(detach: bool):
        net = replay_network(seed)
        if detach:
            for switch in net.switches.values():
                switch._slot_driver = None
        run_replay_traffic(net, duration_us)
        return fingerprint_network(net), net.sim.events_executed

    baseline, events_off = run_scenario(detach=True)
    driven, events_on = run_scenario(detach=False)
    ref_scrubbed = _scrub_tick_phase(baseline)
    cand_scrubbed = _scrub_tick_phase(driven)
    ref_sha = hashlib.sha256(canonical_bytes(ref_scrubbed)).hexdigest()
    cand_sha = hashlib.sha256(canonical_bytes(cand_scrubbed)).hexdigest()
    record = {
        "kind": "slot-driver",
        "seed": seed,
        "duration_us": duration_us,
        "events_off": events_off,
        "events_on": events_on,
        "state_sha256": ref_sha,
        "agreed": ref_sha == cand_sha and events_on < events_off,
    }
    if ref_sha != cand_sha:
        case, reference, candidate = "replay-scenario", ref_sha, cand_sha
    elif events_on >= events_off:
        case, reference, candidate = "event-count", f"<{events_off}", events_on
    else:
        return None, record
    divergence = Divergence(
        kind="fastpath",
        pair="slot-driver",
        seed=seed,
        size=len(baseline["switches"]),
        case=case,
        round=-1,
        port=-1,
        reference=reference,
        candidate=candidate,
    )
    return divergence, record


def slot_driver_sweep(
    seeds: Sequence[int], duration_us: float = 40_000.0
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """:func:`compare_slot_driver` over a seed list."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for seed in seeds:
        divergence, record = compare_slot_driver(
            seed, duration_us=duration_us
        )
        if divergence is not None:
            divergences.append(divergence)
        records.append(record)
    return divergences, records


# ======================================================================
# parking differential (sparse walk vs every armed switch every wave)
# ======================================================================
# A *case* is ``case(seed, prepare) -> Network``: build the network, call
# ``prepare(net)`` before anything runs, drive it, return it.
def replay_case(seed: int, prepare, duration_us: float = 40_000.0):
    """The digest gate's replay scenario."""
    from repro.conform.digest import replay_network, run_replay_traffic

    net = replay_network(seed)
    prepare(net)
    run_replay_traffic(net, duration_us)
    return net


def reserved_case(seed: int, prepare, duration_us: float = 30_000.0):
    """The replay installation carrying a paced reserved stream one way
    and best-effort bursts the other, the reservation released half way:
    reserved-idle, slot-waiting and credit-blocked switches all park."""
    from repro.conform.digest import replay_network
    from repro.net.packet import Packet

    net = replay_network(seed)
    prepare(net)
    net.start()
    net.run_until(net.converged, timeout_us=duration_us)
    stream, reservation = net.reserve_bandwidth("h0", "h1", 4)
    bursts = net.setup_circuit("h1", "h0")
    h0, h1 = net.host("h0"), net.host("h1")
    h0.send_raw_cells(stream.vc, 300)
    for _ in range(12):
        h1.send_packet(
            bursts.vc,
            Packet(source=h1.node_id, destination=h0.node_id, size=960),
        )
    net.run(duration_us / 2)
    for switch, in_port, out_port in reservation.switch_hops:
        net.switches[switch].remove_reservation(in_port, out_port, 4)
    net.run(duration_us / 2)
    return net


def chaos_case(seed: int, prepare):
    """A random fault plan (link, switch, credit and clock-drift faults)
    on a random topology."""
    from repro.faults.runner import ScenarioRunner
    from repro.faults.scenarios import build_random_scenario

    net, plan, loads = build_random_scenario(seed)
    prepare(net)
    ScenarioRunner(net, plan, loads, settle_us=20_000.0).run()
    return net


PARKING_CASES = {
    "replay": replay_case, "reserved": reserved_case, "chaos": chaos_case,
}


def compare_parking(
    case: Callable[[int, Callable[[Any], None]], Any], label: str, seed: int = 0
) -> Tuple[Optional[Divergence], Dict[str, Any]]:
    """Run ``case`` on the default ``Network`` and on the dense walk.

    The reference run
    has its slot driver's ``park`` overridden on the instance so that
    every armed switch is due at every wave (what the driver did before
    switches could park).  The kernel run digest -- every event's
    ``(time, seq, callback)`` -- and the un-scrubbed end-of-run
    fingerprint must be byte-equal, and the walks the candidate skipped
    must be exactly the ones it accounts for as ``parked``.
    """
    from repro.conform.digest import RunDigest, fingerprint_network

    def run(dense: bool):
        digest = RunDigest()

        def prepare(net) -> None:
            if dense:
                driver = net.slot_driver
                driver.park = lambda switch, waves: driver.request_tick(switch)
            net.sim.digest = digest

        net = case(seed, prepare)
        net.sim.digest = None
        digest.absorb("network-state", fingerprint_network(net))
        return digest.hexdigest(), net.slot_driver, len(net.switches)

    ref_sha, dense, size = run(dense=True)
    cand_sha, sparse, _ = run(dense=False)
    walks = (dense.waves, dense.ticks)
    accounted = (sparse.waves, sparse.ticks + sparse.parked)
    record = {
        "kind": "parking",
        "case": label,
        "seed": seed,
        "digest": ref_sha,
        "ticks_dense": dense.ticks,
        "ticks": sparse.ticks,
        "parked": sparse.parked,
        "agreed": ref_sha == cand_sha and walks == accounted,
    }
    if record["agreed"]:
        return None, record
    if ref_sha != cand_sha:
        where, reference, candidate = "run-digest", ref_sha, cand_sha
    else:
        where, reference, candidate = "waves,ticks+parked", walks, accounted
    return Divergence(
        kind="fastpath", pair="parking", seed=seed, size=size,
        case=f"{label}:{where}", round=-1, port=-1,
        reference=reference, candidate=candidate,
    ), record


def parking_sweep(
    seeds: Sequence[int],
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """:func:`compare_parking` over ``PARKING_CASES`` and a seed list."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for seed in seeds:
        for label, case in PARKING_CASES.items():
            divergence, record = compare_parking(case, label, seed)
            if divergence is not None:
                divergences.append(divergence)
            records.append(record)
    return divergences, records
