"""Differential oracles: reference vs kernel, AN1 vs AN2.

Five families of cross-checks, each reporting the *first* divergence it
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
- **Whole-Network twins** -- :func:`compare` runs a row of the case
  table :data:`TWINS` on its reference side and on the fast path and
  reports the first of its sections that does not hold: the sparse
  walk of every slot wave against the dense one (``parking``), the
  closed-form link monitors against
  :class:`~repro.conform.reference.EagerPortMonitor` (``monitor``).

The sweeps run these over seeded grids and also return plain-data
records (the matcher and routing ones hash every slot's matching and
every path) suitable for committing as a regression corpus.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.conform.digest import (
    RunDigest,
    canonical_bytes,
    fingerprint_network,
    replay_network,
    run_replay_traffic,
)
from repro.conform.reference import (
    EagerPortMonitor,
    IslipMatcher,
    ParallelIterativeMatcher,
)
from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim, MatchResult
from repro.core.routing.updown import UpDownOrientation
from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import build_random_scenario
from repro.net.cell import PING, PING_ACK, CellKind
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from repro.sim.random import derived_stream
from repro.switch.fabric import VoqFabric
from repro.switch.switch import SwitchConfig
from repro.traffic.arrivals import (
    ArrivalProcess,
    BernoulliUniform,
    BurstyOnOff,
    Hotspot,
    Permutation,
)
from repro.traffic.workload import PoissonPacketWorkload


@dataclass(frozen=True)
class Divergence:
    """The first point where two implementations disagreed."""

    kind: str        # "matcher", "routing" or "fastpath"
    pair: str        # e.g. "pim", "an1-vs-an2", "parking"
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
# whole-Network twins: one harness, one case table
# ======================================================================
# A *case* is ``case(seed, prepare) -> Network``: build the network, call
# ``prepare(net)`` before anything runs, drive it, return it.  A *twin*
# is a row of :data:`TWINS`.  Each reference trick is written once, here.
def walk_densely(driver) -> None:
    """Every armed switch due at every wave: ``park`` overridden on the
    driver instance (what the wave did before switches could park), and
    on every wave it spawned for a drifting switch or spawns later."""
    driver.park = lambda switch, waves: driver.request_tick(switch)
    for wave in driver.own_waves:
        walk_densely(wave)
    spawn = driver.spawn

    def spawn_dense(switch, slot_time_us):
        wave = spawn(switch, slot_time_us)
        walk_densely(wave)
        return wave

    driver.spawn = spawn_dense


def eager_monitors(net) -> None:
    """Every monitor ``net`` starts is an :class:`EagerPortMonitor`,
    from before its first ack could let it rest."""
    start = net.start

    def start_eagerly() -> None:
        start()
        for node in (*net.switches.values(), *net.hosts.values()):
            for monitor in node.monitors.values():
                monitor.__class__ = EagerPortMonitor

    net.start = start_eagerly


class Twin(NamedTuple):
    """A fast path and the reference it must agree with, on a Network."""

    name: str
    cases: Dict[str, Callable[..., Any]]
    #: ``prepare(net, reference)`` readies a just-built network, the
    #: reference side on if ``reference``; what it returns is handed to
    #: ``observe`` with the finished network.
    prepare: Callable[[Any, bool], Any]
    #: ``(net, prepared) -> {section: value}`` of a finished run, in order.
    observe: Callable[[Any, Any], Dict[str, Any]]
    #: ``holds(reference, candidate)`` for sections not held to equality.
    holds: Dict[str, Callable[[Any, Any], bool]] = {}


def run_twin(row: Twin, case, seed: int, reference: bool):
    """One side of ``row`` on ``case``: ``(network, {section: value})``."""
    prepared = []
    net = case(seed, lambda net: prepared.append(row.prepare(net, reference)))
    return net, row.observe(net, *prepared)


def compare(
    row: Twin, label: str, case, seed: int = 0
) -> Tuple[Optional[Divergence], Dict[str, Any]]:
    """Run ``case`` (called ``label``) on the reference side and on the
    fast path: the first section that does not hold as a
    :class:`Divergence` (``None`` if all do), and the record of both
    sides' sections."""
    _, reference = run_twin(row, case, seed, reference=True)
    net, candidate = run_twin(row, case, seed, reference=False)
    record = {
        "row": row.name, "case": label, "seed": seed,
        "reference": reference, "candidate": candidate, "agreed": True,
    }
    for name, expected in reference.items():
        if not row.holds.get(name, operator.eq)(expected, candidate[name]):
            record["agreed"] = False
            return Divergence(
                kind="fastpath", pair=row.name, seed=seed,
                size=len(net.switches), case=f"{label}:{name}", round=-1,
                port=-1, reference=expected, candidate=candidate[name],
            ), record
    return None, record


def sweep(
    seeds: Sequence[int],
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """:func:`compare` over every row of :data:`TWINS`, each case on the
    row's share of ``seeds``."""
    runs = [
        compare(row, label, case, seed) for row, share in TWINS
        for label, case in row.cases.items() for seed in seeds[:share]
    ]
    return [d for d, _ in runs if d], [record for _, record in runs]


# ----------------------------------------------------------------------
# the one action vocabulary
# ----------------------------------------------------------------------
def plain_credit_filter(rng: random.Random, probability: float):
    """A ``Link.drop_filter`` that drops plain credit returns (not resync
    messages) with the given probability -- resync must survive to do
    its job, as it would in the real design where resync exchanges are
    retried anyway."""

    def predicate(cell):
        if cell.kind is not CellKind.CREDIT:
            return False
        if isinstance(cell.payload, (ResyncRequest, ResyncReply)):
            return False
        return rng.random() < probability

    return predicate


def send_cells(net, circuit, cells: int, copies: int = 1) -> None:
    """``copies`` packets of ``cells`` cells each on ``circuit``."""
    for _ in range(copies):
        net.host(circuit.source).send_packet(circuit.vc, Packet(
            source=circuit.source, destination=circuit.destination,
            size=48 * cells,
        ))


def release(net, circuit, reservation) -> None:
    """Free ``circuit``'s frame slots on every hop of ``reservation``;
    the routing entries forget them, so a teardown frees nothing more."""
    for switch, in_port, _ in reservation.switch_hops:
        net.switches[switch].release_reservation(in_port, circuit.vc)


#: the steps :func:`play` draws from: bursts and runs weigh four times
#: the rest.
ACTIONS = ("burst", "run") * 4 + (
    "open", "close", "remove", "page_out", "fail", "restore", "crash",
    "credit_loss", "hook", "corrupt", "reserve", "release", "stream",
    "drift",
)


def play(
    net, actions, links=None, crashable=None, concurrent=False, words=None,
    after=lambda: None,
) -> None:
    """Interpret ``(action, n)`` steps over a running ``net``, ``n``
    choosing what each acts on (``("at", t)`` runs it until ``t`` us),
    and call ``after()`` after each.  Every step is a function of the
    list and of simulated state only, so both sides of a twin take it.
    ``links`` are the cables steps cut and disturb (default: all),
    ``crashable`` the switches they crash (default: all).  One cable is
    cut at a time, and a switch crashes only while none is, unless
    ``concurrent``: then any number are down at once, and ``restore``
    mends the cable ``n`` picks.  ``words`` adds steps: ``words[name](
    net, circuit, n)`` acts on an open circuit ``n`` picks."""

    def pick(items, n):
        return items[int(n) % len(items)]

    hosts = sorted(str(host) for host in net.hosts)
    links = links or sorted(net.links.values(), key=lambda link: link.label)
    switches = [switch for _, switch in sorted(net.switches.items())]
    crashable = crashable or sorted(net.switches)
    words = words or {}
    unicast, held, failed, crashed = [], [], [], []
    for name, n in actions:
        link = pick(links, n)
        if name == "at":
            net.run(max(n - net.now, 0.0))
        elif hosts and (name == "open" or name == "burst" and not unicast):
            src = pick(hosts, n)
            dst = pick([h for h in hosts if h != src], n // 7)
            try:
                unicast.append(net.setup_circuit(src, dst))
            except Exception:
                pass  # no route while views disagree
        elif name == "burst" and unicast:
            circuit = pick(unicast, n)
            if circuit.vc in net.host(circuit.source).senders:
                send_cells(net, circuit, 1 + n % 12, copies=1 + n % 4)
        elif name == "run":
            net.run(20 + n % 3_000)
        elif name == "close" and unicast:
            circuit = unicast.pop(n % len(unicast))
            net.host(circuit.source).close_circuit(circuit.vc)
        elif name == "remove" and unicast:
            pick(switches, n // 5).remove_circuit(pick(unicast, n).vc)
        elif name == "page_out" and unicast:
            for switch in switches:
                switch.page_out(pick(unicast, n).vc)
        elif name == "fail" and (concurrent or not failed):
            failed.append(link)
            link.fail()
        elif name == "restore" and concurrent:
            link.restore()
        elif name == "restore":
            if failed:
                failed.pop().restore()
            if crashed:
                net.restore_switch(crashed.pop())
        elif name == "crash" and (concurrent or not crashed and not failed):
            crashed.append(pick(crashable, n))
            net.crash_switch(crashed[-1])
        elif name in ("credit_loss", "hook"):  # a hook drops nothing
            link.drop_filter = None if link.drop_filter else (
                plain_credit_filter(
                    random.Random(n), 0.4 if name == "credit_loss" else 0.0
                )
            )
        elif name == "corrupt":
            link.set_error_rate(0.0 if link.error_rate else 0.3)
        elif name == "reserve" and hosts and len(held) < 3 and not failed:
            cells = 1 + n % 6
            try:
                circuit, reservation = net.reserve_bandwidth(
                    pick(hosts[:-1], n), hosts[-1], cells
                )
            except Exception:
                pass  # views disagree, or the link is full
            else:
                held.append((circuit, reservation))
                net.run(100)  # the hops install it, one control delay each
        elif name == "stream" and held:
            circuit = pick(held, n)[0]
            net.host(circuit.source).send_raw_cells(circuit.vc, 1 + n % 40)
        elif name == "release" and held:
            release(net, *held.pop(n % len(held)))
        elif name == "drift":
            pick(switches, n).set_clock_drift(
                pick([0.0, 120.0, 0.0, -60.0], n // 3)
            )
        elif name in words and unicast:
            words[name](net, pick(unicast, n), n)
        after()


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------
def replay_case(seed: int, prepare, duration_us: float = 40_000.0):
    """The digest gate's replay scenario."""
    net = replay_network(seed)
    prepare(net)
    run_replay_traffic(net, duration_us)
    return net


def reserved_case(seed: int, prepare, duration_us: float = 30_000.0):
    """The replay installation carrying a paced reserved stream one way
    and best-effort bursts the other, the reservation released half way:
    reserved-idle, slot-waiting and credit-blocked switches all park."""
    net = replay_network(seed)
    prepare(net)
    net.start()
    net.run_until(net.converged, timeout_us=duration_us)
    stream, reservation = net.reserve_bandwidth("h0", "h1", 4)
    bursts = net.setup_circuit("h1", "h0")
    net.host("h0").send_raw_cells(stream.vc, 300)
    send_cells(net, bursts, 20, copies=12)
    net.run(duration_us / 2)
    release(net, stream, reservation)
    net.run(duration_us / 2)
    return net


def chaos_case(seed: int, prepare):
    """A random fault plan (link, switch, credit and clock-drift faults)
    on a random topology."""
    net, plan, loads = build_random_scenario(seed)
    prepare(net)
    ScenarioRunner(net, plan, loads, settle_us=20_000.0).run()
    return net


def _sha(fingerprint: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_bytes(fingerprint)).hexdigest()


def _prepare_parking(net, reference) -> RunDigest:
    if reference:
        walk_densely(net.slot_driver)
    net.sim.digest = RunDigest()
    return net.sim.digest


def _kernel_events(net, digest) -> Dict[str, Any]:
    """The kernel run digest, the un-scrubbed fingerprint, and the
    ``(waves, ticks, parked)`` of every wave: the waves must match, and
    the walks the sparse run skipped be the ones it counts as parked."""
    return {
        "run-digest": digest.hexdigest(),
        "state": _sha(fingerprint_network(net)),
        "walks": net.slot_driver.counts(),
    }


PARKING = Twin(
    "parking",
    {"replay": replay_case, "reserved": reserved_case, "chaos": chaos_case},
    _prepare_parking, _kernel_events,
    holds={"walks": lambda reference, candidate: (
        reference[0] == candidate[0]
        and sum(reference[1:]) == sum(candidate[1:])
    )},
)


#: what a monitor schedule's steps do: cut or mend a cable, crash a
#: switch, toggle a cable's error rate or a drop filter that drops nothing.
FAULTS = ("fail", "restore", "corrupt", "crash", "hook")
MONITOR_SPAN_US = 40_000.0


def monitor_case(seed: int, prepare, topology: str, schedule):
    """Boot ``ring4`` or ``fattree4`` (one host per edge switch and a
    packet stream between two of them) on monitors fast enough for
    skeptics to come back to rest, and play each ``(at_us, fault, n)``
    step of ``schedule`` at its time -- any number of cables cut and
    switches crashed at once -- over :data:`MONITOR_SPAN_US`."""
    monitoring = dict(
        ping_interval_us=500.0, ack_timeout_us=200.0, miss_threshold=2,
        skeptic_base_wait_us=2_000.0, skeptic_decay_us=8_000.0,
    )
    net = Network(
        Topology.ring(4) if topology == "ring4"
        else fat_tree(4, hosts_per_edge=1).topology,
        seed=seed,
        switch_config=SwitchConfig(
            control_delay_us=10.0, boot_reconfig_delay_us=1_500.0,
            **monitoring,
        ),
        host_config=HostConfig(**monitoring),
    )
    prepare(net)
    net.start()
    if net.hosts:
        net.run_until(net.converged, timeout_us=MONITOR_SPAN_US)
        hosts = sorted(net.hosts)
        circuit = net.setup_circuit(hosts[0], hosts[-1])
        PoissonPacketWorkload(
            net.sim, net.hosts[hosts[0]], circuit.vc, circuit.destination,
            mean_interval_us=1_000.0, packet_bytes=240,
            rng=net.streams.stream("conform.monitor"),
            duration_us=MONITOR_SPAN_US,
        ).start()
    play(net, [
        step for at, fault, n in sorted(schedule)
        for step in (("at", at), (fault, n))
    ], concurrent=True)
    net.run(MONITOR_SPAN_US - net.now)
    return net


def drawn_monitor_case(seed: int, prepare):
    """:func:`monitor_case` on a topology and one to six faults between
    2 and 30 ms, drawn from ``seed``."""
    rng = derived_stream("conform.oracle/monitor", seed)
    topology = rng.choice(("ring4", "fattree4"))
    schedule = [
        (rng.uniform(2_000.0, 30_000.0), rng.choice(FAULTS), rng.randrange(64))
        for _ in range(rng.randint(1, 6))
    ]
    return monitor_case(seed, prepare, topology, schedule)


def _prepare_monitors(net, reference) -> List[Any]:
    """The eager monitors if ``reference``, and a log of every non-ping
    cell a node is handed: when, on which port, its kind, and how many
    cells that port's link has delivered by then."""
    if reference:
        eager_monitors(net)
    cells: List[Any] = []
    for node in (*net.switches.values(), *net.hosts.values()):
        def on_cell(port, cell, handle=node.on_cell) -> None:
            if cell.kind is not PING and cell.kind is not PING_ACK:
                cells.append([
                    net.now, port.label, cell.kind.value,
                    port.link.cells_delivered,
                ])
            handle(port, cell)

        node.on_cell = on_cell
    return cells


def _monitor_outcomes(net, cells) -> Dict[str, Any]:
    """What the monitors decided and counted, the link counters, and
    every non-ping cell a node was handed."""
    nodes = sorted((*net.switches.items(), *net.hosts.items()))
    monitors = [
        (f"{node_id}.p{index}", monitor) for node_id, node in nodes
        for index, monitor in sorted(node.monitors.items())
    ]
    links = sorted(net.links.values(), key=lambda link: link.label)
    return {
        "verdicts": sorted(
            [at, port, verdict.value] for port, monitor in monitors
            for at, verdict in monitor.skeptic.verdict_changes
        ),
        "monitors": [
            [port, monitor.pings_sent, monitor.acks_received, monitor._seq,
             monitor._misses] for port, monitor in monitors
        ],
        "links": [
            [link.label, link.state.value, link.cells_delivered,
             link.cells_dropped, link.cells_corrupted, link.port_a.cells_sent,
             link.port_a.cells_received, link.port_b.cells_sent,
             link.port_b.cells_received] for link in links
        ],
        "cells": cells,
    }


MONITOR = Twin(
    "monitor", {"drawn": drawn_monitor_case}, _prepare_monitors,
    _monitor_outcomes,
)
#: the case table: each whole-Network twin, and how many of the gate's
#: seeds :func:`sweep` runs its cases on (``None``: all).  A parking
#: case is two whole-Network replays; a few seeds keep that row
#: proportionate to the matcher sweep.
TWINS = ((PARKING, 3), (MONITOR, None))
