"""The crossbar scheduling kernel: PIM and iSLIP over port bitmasks.

Section 3's request/grant/accept rounds, computed on *port bitmasks*:
each input's request set is a single Python int with bit ``o`` set iff
the input has a buffered cell for output ``o`` (valid for N <= 64; AN2
is N = 16).  The three rounds become ``&``/``|``/``bit_count()``
operations over those ints, set-bit enumeration is a single lookup in a
table as wide as the widest matcher built (at most 16 bits), and the
transposed matrix (per-output contender columns) is supplied ready-made
by :class:`~repro.switch.crossbar.Crossbar`, which maintains it on
request edges, instead of being rebuilt every iteration.

This is the only matcher the simulator runs.  Its oracle is the
set-and-dictionary rendering of the same section in
:mod:`repro.conform.reference`, which tests and the conformance gate
compare it against; the contract is *bit-identity for a shared seed*:
ports are visited in ascending order and every grant and every accept
consumes exactly the draws of ``rng.randrange(k)`` over the ``k``
contenders in ascending order, one-contender draws included, exactly
the reference's draw sequence.  It makes them with ``rng.getrandbits``
inline (``randrange(k)`` is three Python frames around that loop), so
``rng`` must be a :class:`random.Random`.
:class:`BitmaskIslip` involves no randomness at all.  Both classes also
accept plain request sets through ``match(requests, pre_matched)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

MAX_PORTS = 64  # one bit per output in a machine-word-sized int

RequestsLike = Sequence[Union[int, Set[int], Iterable[int]]]

Matching = Dict[int, int]  # input port -> output port


@dataclass(slots=True)
class MatchResult:
    """Outcome of one slot's matching.

    Attributes:
        matching: input -> output pairs chosen this slot (including any
            pre-matched pairs passed in).
        iterations_run: how many request/grant/accept rounds executed.
        iterations_to_maximal: the first iteration index (1-based) after
            which the matching was maximal, or ``None`` if it never became
            maximal within ``iterations_run``.
        new_matches_per_iteration: matches added by each iteration.
    """

    matching: Matching
    iterations_run: int
    iterations_to_maximal: Optional[int]
    new_matches_per_iteration: List[int] = field(default_factory=list)


# _BITS16[m] is the tuple of set-bit positions of m in ascending order,
# for every m below 1 << w: w is the widest radix (at most 16) a matcher
# was built for, or a wider mask bits_of was asked about.  It grows in
# place by doubling (entry m + 2**k is entry m plus bit k), so a 10-port
# switch holds 1,024 entries instead of the 65,536 (~7 MB) of a 16-port
# one, and the matchers' hot loops stay one index behind one compare
# against the length they read on entry.  The table is shared by the
# whole process, but each entry is a pure function of its index: which
# matcher grew it cannot change what any lookup returns.
_BITS16: List[Tuple[int, ...]] = [()]
_covered = 1  # len(_BITS16), for bits_of to compare without a call


def _cover(width: int) -> None:
    """Grow ``_BITS16`` to every ``width``-bit mask (``width <= 16``)."""
    global _covered
    table = _BITS16
    while len(table) < 1 << width:
        bit = len(table).bit_length() - 1
        table.extend([bits + (bit,) for bits in table])
    _covered = len(table)


# _POW2[i] == 1 << i (an index beats a shift in the draw loop).
_POW2: Tuple[int, ...] = tuple(1 << _i for _i in range(MAX_PORTS))


def mask_of(ports: Iterable[int]) -> int:
    """Pack an iterable of port numbers into a bitmask."""
    mask = 0
    for port in ports:
        mask |= 1 << port
    return mask


# Offset variants of _BITS16 (positions shifted by 16/32/48), built
# lazily the first time a matcher wider than 16 ports is constructed;
# wide-mask enumeration then reduces to concatenating prebuilt tuples.
_BITS_OFFSET: dict = {}


def _offset_table(base: int) -> List[Tuple[int, ...]]:
    table = _BITS_OFFSET.get(base)
    if table is None:
        _cover(16)
        table = [
            tuple(bit + base for bit in bits) for bits in _BITS16
        ]
        _BITS_OFFSET[base] = table
    return table


def bits_of(mask: int) -> Tuple[int, ...]:
    """Set-bit positions of ``mask`` in ascending order (N <= 64); a
    mask wider than the table grows it (to 16 bits at most)."""
    if mask < _covered:
        return _BITS16[mask]
    if mask < 65536:
        _cover(mask.bit_length())
        return _BITS16[mask]
    _cover(16)
    out = _BITS16[mask & 0xFFFF]
    mask >>= 16
    base = 16
    while mask:
        chunk = mask & 0xFFFF
        if chunk:
            out = out + _offset_table(base)[chunk]
        mask >>= 16
        base += 16
    return out


def _as_masks(requests: RequestsLike, n_ports: int) -> List[int]:
    """Normalize request sets or masks to a list of validated masks."""
    if len(requests) != n_ports:
        raise ValueError(
            f"expected {n_ports} request sets, got {len(requests)}"
        )
    full = (1 << n_ports) - 1
    masks: List[int] = []
    for input_port, wanted in enumerate(requests):
        if isinstance(wanted, int):
            mask = wanted
            if mask < 0 or mask & ~full:
                raise ValueError(
                    f"input {input_port} mask {mask:#x} exceeds {n_ports} ports"
                )
        else:
            mask = 0
            for output_port in wanted:
                if not 0 <= output_port < n_ports:
                    raise ValueError(
                        f"input {input_port} requests bad output {output_port}"
                    )
                mask |= 1 << output_port
        masks.append(mask)
    return masks


def _pre_matched_masks(matching: Matching) -> Tuple[int, int]:
    """Input and output masks of an existing partial matching."""
    matched_inputs = 0
    matched_outputs = 0
    # det: allow(commutative OR-accumulation; item order cannot matter)
    for input_port, output_port in matching.items():
        bit = 1 << output_port
        if matched_outputs & bit:
            raise ValueError("pre_matched pairs share an output")
        matched_outputs |= bit
        matched_inputs |= 1 << input_port
    return matched_inputs, matched_outputs


def _transpose(masks: Sequence[int], n_ports: int) -> List[int]:
    """Per-output contender columns: bit ``i`` of ``cols[o]`` iff input
    ``i`` requests output ``o``."""
    cols = [0] * n_ports
    for input_port in range(n_ports):
        row = masks[input_port]
        if not row:
            continue
        input_bit = 1 << input_port
        for output_port in bits_of(row):
            cols[output_port] |= input_bit
    return cols


def _check_ports(n_ports: int) -> None:
    if n_ports <= 0:
        raise ValueError(f"n_ports must be positive, got {n_ports}")
    if n_ports > MAX_PORTS:
        raise ValueError(
            f"bitmask matcher supports at most {MAX_PORTS} ports, "
            f"got {n_ports}"
        )
    # Pay the table builds at construction, not inside the first
    # (possibly timed) match call.
    _cover(min(n_ports, 16))
    base = 16
    while base < n_ports:
        _offset_table(base)
        base += 16


class BitmaskPim:
    """Parallel iterative matching over port bitmasks.

    Bit-identical to the reference
    :class:`~repro.conform.reference.ParallelIterativeMatcher` for the
    same seeded ``rng``: same constructor, same ``match`` contract, same
    matching and the same RNG draw sequence.

    Args:
        n_ports: switch radix N (16 for AN2).
        iterations: rounds per slot (AN2 uses 3).
        rng: randomness source for the grant and accept choices.
    """

    name = "pim_bitmask"

    def __init__(
        self,
        n_ports: int,
        iterations: int = 3,
        rng: Optional[random.Random] = None,
    ) -> None:
        _check_ports(n_ports)
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.n_ports = n_ports
        self.iterations = iterations
        self.rng = rng if rng is not None else random.Random(0)

    # ------------------------------------------------------------------
    def match(
        self,
        requests: RequestsLike,
        pre_matched: Optional[Matching] = None,
    ) -> MatchResult:
        """Compute one slot's matching from request sets *or* masks."""
        return self.match_masks(
            _as_masks(requests, self.n_ports), pre_matched=pre_matched
        )

    def match_masks(
        self,
        masks: Sequence[int],
        pre_matched: Optional[Matching] = None,
        col_masks: Optional[Sequence[int]] = None,
        union: Optional[int] = None,
        available: Optional[int] = None,
    ) -> MatchResult:
        """``masks[i]`` has bit ``o`` set iff input ``i`` has a cell for
        output ``o``.

        ``pre_matched`` holds input -> output pairs already committed
        this slot (guaranteed-traffic reservations); PIM only fills the
        remaining inputs and outputs, which is how best-effort traffic
        rides the unreserved slots (section 4).  ``col_masks`` optionally
        supplies the transposed matrix (bit ``i`` of ``col_masks[o]``
        iff input ``i`` has a cell for ``o``); extra bits for pre-matched
        inputs and for outputs no row requests are ignored, which lets
        :class:`~repro.switch.crossbar.Crossbar` pass its maintained
        columns unfiltered.  ``union`` optionally supplies the OR of the
        ``masks`` of the inputs that are not pre-matched.  ``available``
        optionally limits the outputs that may be matched (the free
        ones: pre-matched pairs stand wherever they are), as if every
        row were masked by it.  Masks are read, never mutated.
        """
        n = self.n_ports
        full = (1 << n) - 1
        outputs = full if available is None else full & available
        if pre_matched:
            matching: Matching = dict(pre_matched)
            matched_inputs, matched_outputs = _pre_matched_masks(matching)
            free_inputs = full & ~matched_inputs
        else:
            matching = {}
            matched_outputs = 0
            free_inputs = full
        free_outputs = outputs & ~matched_outputs
        cols = col_masks if col_masks is not None else _transpose(masks, n)
        getrandbits = self.rng.getrandbits
        B = _BITS16  # local bindings for the hot loops
        covered = len(B)  # >= 1 << n up to n = 16: one compare, no miss
        P = _POW2

        iterations_to_maximal: Optional[int] = None
        new_per_iteration: List[int] = []

        # Requests still in play: outputs wanted by some unmatched input.
        if union is None:
            union = 0
            for input_port in (
                B[free_inputs]
                if free_inputs < covered
                else bits_of(free_inputs)
            ):
                union |= masks[input_port]
        union &= free_outputs

        # Determinism contract, shared with the reference: outputs (step
        # 2) and inputs (step 3) are visited in ascending port order and
        # every choice draws what ``randrange(k)`` over the ascending
        # contenders would (inline: one ``getrandbits(1)`` until it reads
        # 0 for k == 1, else ``k.bit_length()`` bits until below k), so a
        # fixed-seed run consumes RNG draws in one reproducible sequence.
        # The hardware ports all decide simultaneously, so any order is
        # faithful -- but digests, the corpus and the oracle rely on this
        # exact one.  Do not change it.
        for iteration in range(1, self.iterations + 1):
            # Step 1+2: every contended free output grants one request.
            grants = [0] * n
            granted = 0
            for output_port in (
                B[union] if union < covered else bits_of(union)
            ):
                column = cols[output_port] & free_inputs
                blist = B[column] if column < covered else bits_of(column)
                k = len(blist)
                if k == 1:
                    while getrandbits(1):
                        pass
                    chosen = blist[0]
                elif k:
                    width = k.bit_length()
                    draw = getrandbits(width)
                    while draw >= k:
                        draw = getrandbits(width)
                    chosen = blist[draw]
                else:  # randrange(0) raised: no draw can end
                    raise ValueError(f"output {output_port}: empty column")
                grants[chosen] |= P[output_port]
                granted |= P[chosen]

            # Step 3: every granted input accepts one grant (every input
            # with at least one grant ends up matched, so the iteration
            # adds exactly ``popcount(granted)`` pairs and the free-input
            # mask can be updated wholesale afterwards).
            for input_port in (
                B[granted] if granted < covered else bits_of(granted)
            ):
                row = grants[input_port]
                blist = B[row] if row < covered else bits_of(row)
                k = len(blist)
                if k == 1:
                    while getrandbits(1):
                        pass
                    accepted = blist[0]
                else:
                    width = k.bit_length()
                    draw = getrandbits(width)
                    while draw >= k:
                        draw = getrandbits(width)
                    accepted = blist[draw]
                matching[input_port] = accepted
                matched_outputs |= P[accepted]
            free_inputs &= ~granted
            new_per_iteration.append(granted.bit_count())

            free_outputs = outputs & ~matched_outputs
            if free_outputs:
                union = 0
                for input_port in (
                    B[free_inputs]
                    if free_inputs < covered
                    else bits_of(free_inputs)
                ):
                    union |= masks[input_port]
                union &= free_outputs
            else:
                union = 0  # perfect match: nothing left to request
            if union == 0:
                # No unmatched input still wants an unmatched output;
                # later iterations cannot add matches.
                iterations_to_maximal = iteration
                break

        return MatchResult(
            matching=matching,
            iterations_run=len(new_per_iteration),
            iterations_to_maximal=iterations_to_maximal,
            new_matches_per_iteration=new_per_iteration,
        )


class BitmaskIslip:
    """Round-robin (iSLIP) matching over port bitmasks.

    Exactly equivalent to the reference
    :class:`~repro.conform.reference.IslipMatcher` (no randomness is
    involved): the rotating-pointer pick becomes "first
    set bit at or after the pointer, wrapping" -- one shift and a
    ``bit_length``.
    """

    name = "islip_bitmask"

    def __init__(self, n_ports: int, iterations: int = 3) -> None:
        _check_ports(n_ports)
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.n_ports = n_ports
        self.iterations = iterations
        self.grant_pointers: List[int] = [0] * n_ports  # per output
        self.accept_pointers: List[int] = [0] * n_ports  # per input

    def reset(self) -> None:
        self.grant_pointers = [0] * self.n_ports
        self.accept_pointers = [0] * self.n_ports

    @staticmethod
    def _rotate_pick(mask: int, pointer: int) -> int:
        """First set bit at or after ``pointer`` in circular port order."""
        upper = mask >> pointer
        if upper:
            return pointer + (upper & -upper).bit_length() - 1
        return (mask & -mask).bit_length() - 1

    def match(
        self,
        requests: RequestsLike,
        pre_matched: Optional[Matching] = None,
    ) -> MatchResult:
        return self.match_masks(
            _as_masks(requests, self.n_ports), pre_matched=pre_matched
        )

    def match_masks(
        self,
        masks: Sequence[int],
        pre_matched: Optional[Matching] = None,
        col_masks: Optional[Sequence[int]] = None,
        union: Optional[int] = None,
        available: Optional[int] = None,
    ) -> MatchResult:
        """:meth:`BitmaskPim.match_masks`'s contract, pointers moving
        instead of draws."""
        n = self.n_ports
        matching: Matching = dict(pre_matched) if pre_matched else {}
        matched_inputs, matched_outputs = _pre_matched_masks(matching)
        full = (1 << n) - 1
        outputs = full if available is None else full & available
        cols = col_masks if col_masks is not None else _transpose(masks, n)
        grant_pointers = self.grant_pointers
        accept_pointers = self.accept_pointers
        rotate_pick = self._rotate_pick
        B = _BITS16
        covered = len(B)

        free_inputs = full & ~matched_inputs
        free_outputs = outputs & ~matched_outputs
        new_per_iteration: List[int] = []
        iterations_to_maximal: Optional[int] = None

        if union is None:
            union = 0
            for input_port in (
                B[free_inputs]
                if free_inputs < covered
                else bits_of(free_inputs)
            ):
                union |= masks[input_port]
        union &= free_outputs

        for iteration in range(1, self.iterations + 1):
            grants = [0] * n
            granted = 0
            for output_port in (
                B[union] if union < covered else bits_of(union)
            ):
                column = cols[output_port] & free_inputs
                chosen = rotate_pick(column, grant_pointers[output_port])
                grants[chosen] |= 1 << output_port
                granted |= 1 << chosen

            for input_port in (
                B[granted] if granted < covered else bits_of(granted)
            ):
                accepted = rotate_pick(
                    grants[input_port], accept_pointers[input_port]
                )
                matching[input_port] = accepted
                matched_outputs |= 1 << accepted
                if iteration == 1:
                    # Pointers move only on first-iteration accepts; this
                    # is the rule that guarantees 100% throughput for
                    # uniform traffic and prevents starvation.
                    grant_pointers[accepted] = (input_port + 1) % n
                    accept_pointers[input_port] = (accepted + 1) % n
            free_inputs &= ~granted
            new_per_iteration.append(granted.bit_count())

            free_outputs = outputs & ~matched_outputs
            union = 0
            for input_port in (
                B[free_inputs]
                if free_inputs < covered
                else bits_of(free_inputs)
            ):
                union |= masks[input_port]
            union &= free_outputs
            if union == 0:
                iterations_to_maximal = iteration
                break

        return MatchResult(
            matching=matching,
            iterations_run=len(new_per_iteration),
            iterations_to_maximal=iterations_to_maximal,
            new_matches_per_iteration=new_per_iteration,
        )
