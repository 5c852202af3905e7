"""Bitmask fast-path crossbar schedulers.

The reference matchers (:mod:`repro.core.matching.pim`,
:mod:`repro.core.matching.islip`) model the paper's distributed
request/grant/accept wires with dictionaries of Python sets and lists.
That is the clearest rendering of section 3, but it is also the hot loop
of every fabric experiment: at N = 16 a load sweep runs the matcher
10^5+ times, and each call churns through
``setdefault``/``sorted``/set-membership machinery.

This module re-implements the same algorithms on *port bitmasks*: each
input's request set is a single Python int with bit ``o`` set iff the
input has a buffered cell for output ``o`` (valid for N <= 64; AN2 is
N = 16).  The request, grant and accept rounds become ``&``/``|``/
``bit_count()`` operations over those ints, set-bit enumeration is a
single lookup in a precomputed 16-bit table, and the request matrix is
transposed into per-output contender columns once per call (or supplied
ready-made by :class:`~repro.switch.fabric.VoqFabric`, which maintains
the columns incrementally) instead of being rebuilt every iteration.

Semantics are identical to the reference implementations -- ports are
visited in ascending order, grants and accepts are uniform random
choices among contenders -- but the *random draw protocol* is selectable:

- ``strict_rng=True`` consumes ``rng.randrange(k)`` in exactly the
  sequence the reference implementation does, making :class:`BitmaskPim`
  *bit-identical* to
  :class:`~repro.core.matching.pim.ParallelIterativeMatcher` for a
  shared seed.  The equivalence property tests rely on this mode.
- ``strict_rng=False`` (the default fast path) draws the same uniform
  choice via a single C-level ``rng.random()`` call and skips the
  degenerate draw when only one contender exists.  Runs remain fully
  deterministic for a fixed seed, and per-flow service distributions are
  indistinguishable from the reference (pinned by the E11-pattern test).

:class:`BitmaskIslip` involves no randomness at all, so it is exactly
equivalent to :class:`~repro.core.matching.islip.IslipMatcher` in every
mode.  Both classes also accept plain request sets through the reference
``match(requests, pre_matched)`` entry point, so they are drop-in
replacements anywhere a reference matcher is used.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.matching.pim import MatchResult, Matching

MAX_PORTS = 64  # one bit per output in a machine-word-sized int

RequestsLike = Sequence[Union[int, Set[int], Iterable[int]]]

# _BITS16[m] is the tuple of set-bit positions of the 16-bit value m in
# ascending order.  Built once by dynamic programming over the lowest set
# bit; ~8 MB, bought back within a single load sweep.
_BITS16: List[Tuple[int, ...]] = [()] * 65536
for _m in range(1, 65536):
    _low = _m & -_m
    _BITS16[_m] = (_low.bit_length() - 1,) + _BITS16[_m ^ _low]
del _m, _low

# Parallel lookup tables for the draw loops: _LEN16[m] == len(_BITS16[m])
# (an index beats a len() call) and _POW2[i] == 1 << i (an index beats a
# shift).  Both measurably matter at 10^6+ operations per load sweep.
_LEN16: Tuple[int, ...] = tuple(len(_bits) for _bits in _BITS16)
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
        table = [
            tuple(bit + base for bit in bits) for bits in _BITS16
        ]
        _BITS_OFFSET[base] = table
    return table


def bits_of(mask: int) -> Tuple[int, ...]:
    """Set-bit positions of ``mask`` in ascending order (N <= 64)."""
    if mask < 65536:
        return _BITS16[mask]
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


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    return iter(bits_of(mask))


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
        for output_port in _BITS16[row] if row < 65536 else bits_of(row):
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
    # Pay the offset-table build at construction, not inside the first
    # (possibly timed) match call.
    base = 16
    while base < n_ports:
        _offset_table(base)
        base += 16


class BitmaskPim:
    """Parallel iterative matching over port bitmasks.

    Drop-in for :class:`~repro.core.matching.pim.ParallelIterativeMatcher`:
    same constructor plus ``strict_rng``, same ``match`` contract, and --
    with ``strict_rng=True`` -- bit-identical output for the same seeded
    ``rng`` (the RNG draw sequence is preserved exactly).
    """

    name = "pim_bitmask"

    def __init__(
        self,
        n_ports: int,
        iterations: int = 3,
        rng: Optional[random.Random] = None,
        strict_rng: bool = False,
    ) -> None:
        _check_ports(n_ports)
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.n_ports = n_ports
        self.iterations = iterations
        self.rng = rng if rng is not None else random.Random(0)
        self.strict_rng = strict_rng

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
    ) -> MatchResult:
        """Fast path: ``masks[i]`` has bit ``o`` set iff input ``i`` has a
        cell for output ``o``.

        ``col_masks`` optionally supplies the transposed matrix (bit
        ``i`` of ``col_masks[o]`` iff input ``i`` has a cell for ``o``);
        extra bits for pre-matched inputs/outputs are ignored, which lets
        :class:`~repro.switch.fabric.VoqFabric` pass its incrementally
        maintained columns unfiltered.  ``union`` optionally supplies the
        OR of all ``masks`` (only valid when no input is pre-matched).
        Masks are read, never mutated.
        """
        n = self.n_ports
        if n <= 16 and not self.strict_rng:
            # All masks fit the 16-bit table: run the branch-free
            # specialization (AN2 itself is N = 16, so this is the case
            # every paper experiment hits).
            return self._match_masks16(masks, pre_matched, col_masks, union)
        full = (1 << n) - 1
        if pre_matched:
            matching: Matching = dict(pre_matched)
            matched_inputs, matched_outputs = _pre_matched_masks(matching)
            free_inputs = full & ~matched_inputs
            free_outputs = full & ~matched_outputs
        else:
            matching = {}
            matched_outputs = 0
            free_inputs = full
            free_outputs = full
        cols = col_masks if col_masks is not None else _transpose(masks, n)
        rng = self.rng
        rng_random = rng.random
        strict = self.strict_rng
        B = _BITS16  # local bindings for the hot loops
        P = _POW2

        iterations_to_maximal: Optional[int] = None
        new_per_iteration: List[int] = []

        # Requests still in play: outputs wanted by some unmatched input.
        if union is None:
            union = 0
            for input_port in (
                B[free_inputs]
                if free_inputs < 65536
                else bits_of(free_inputs)
            ):
                union |= masks[input_port]
        union &= free_outputs

        for iteration in range(1, self.iterations + 1):
            # Step 1+2: every contended free output grants one request.
            # The contender tuple from the table doubles as the draw
            # population: uniform pick = index by a scaled random float.
            grants = [0] * n
            granted = 0
            for output_port in B[union] if union < 65536 else bits_of(union):
                column = cols[output_port] & free_inputs
                blist = B[column] if column < 65536 else bits_of(column)
                if strict:
                    chosen = blist[rng.randrange(len(blist))]
                elif len(blist) == 1:
                    chosen = blist[0]
                else:
                    chosen = blist[int(rng_random() * len(blist))]
                grants[chosen] |= P[output_port]
                granted |= P[chosen]

            # Step 3: every granted input accepts one grant (every input
            # with at least one grant ends up matched, so the iteration
            # adds exactly ``popcount(granted)`` pairs and the free-input
            # mask can be updated wholesale afterwards).
            for input_port in (
                B[granted] if granted < 65536 else bits_of(granted)
            ):
                row = grants[input_port]
                blist = B[row] if row < 65536 else bits_of(row)
                if strict:
                    accepted = blist[rng.randrange(len(blist))]
                elif len(blist) == 1:
                    accepted = blist[0]
                else:
                    accepted = blist[int(rng_random() * len(blist))]
                matching[input_port] = accepted
                matched_outputs |= P[accepted]
            free_inputs &= ~granted
            new_per_iteration.append(granted.bit_count())

            free_outputs = full & ~matched_outputs
            if free_outputs:
                union = 0
                for input_port in (
                    B[free_inputs]
                    if free_inputs < 65536
                    else bits_of(free_inputs)
                ):
                    union |= masks[input_port]
                union &= free_outputs
            else:
                union = 0  # perfect match: nothing left to request
            if union == 0:
                # No unmatched input still wants an unmatched output.
                iterations_to_maximal = iteration
                break

        return MatchResult(
            matching=matching,
            iterations_run=len(new_per_iteration),
            iterations_to_maximal=iterations_to_maximal,
            new_matches_per_iteration=new_per_iteration,
        )

    def _match_masks16(
        self,
        masks: Sequence[int],
        pre_matched: Optional[Matching],
        col_masks: Optional[Sequence[int]],
        union: Optional[int] = None,
    ) -> MatchResult:
        """N <= 16 fast-RNG specialization of :meth:`match_masks`.

        Identical draw protocol and results to the general fast path;
        every mask fits the 16-bit table, so the chunked ``bits_of``
        fallback branches disappear from the three inner loops.
        """
        n = self.n_ports
        full = (1 << n) - 1
        if pre_matched:
            matching: Matching = dict(pre_matched)
            matched_inputs, matched_outputs = _pre_matched_masks(matching)
            free_inputs = full & ~matched_inputs
            free_outputs = full & ~matched_outputs
        else:
            matching = {}
            matched_outputs = 0
            free_inputs = full
            free_outputs = full
        cols = col_masks if col_masks is not None else _transpose(masks, n)
        rng_random = self.rng.random
        B = _BITS16
        L = _LEN16
        P = _POW2

        if union is None:
            union = 0
            for input_port in B[free_inputs]:
                union |= masks[input_port]
        union &= free_outputs
        # While every input is still free (always true in iteration 1
        # without reservations), a contender column needs no masking.
        all_free = free_inputs == full

        iterations_to_maximal: Optional[int] = None
        new_per_iteration: List[int] = []
        for iteration in range(1, self.iterations + 1):
            grants = [0] * n
            granted = 0
            if all_free:
                all_free = False
                for output_port in B[union]:
                    column = cols[output_port]
                    blist = B[column]
                    k = L[column]
                    chosen = (
                        blist[0] if k == 1 else blist[int(rng_random() * k)]
                    )
                    grants[chosen] |= P[output_port]
                    granted |= P[chosen]
            else:
                for output_port in B[union]:
                    column = cols[output_port] & free_inputs
                    blist = B[column]
                    k = L[column]
                    chosen = (
                        blist[0] if k == 1 else blist[int(rng_random() * k)]
                    )
                    grants[chosen] |= P[output_port]
                    granted |= P[chosen]

            for input_port in B[granted]:
                row = grants[input_port]
                blist = B[row]
                k = L[row]
                accepted = blist[0] if k == 1 else blist[int(rng_random() * k)]
                matching[input_port] = accepted
                matched_outputs |= P[accepted]
            free_inputs &= ~granted
            new_per_iteration.append(granted.bit_count())

            free_outputs = full & ~matched_outputs
            if free_outputs:
                union = 0
                for input_port in B[free_inputs]:
                    union |= masks[input_port]
                union &= free_outputs
            else:
                union = 0  # perfect match: nothing left to request
            if union == 0:
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

    Exactly equivalent to :class:`~repro.core.matching.islip.IslipMatcher`
    (no randomness is involved): the rotating-pointer pick becomes "first
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
    ) -> MatchResult:
        n = self.n_ports
        matching: Matching = dict(pre_matched) if pre_matched else {}
        matched_inputs, matched_outputs = _pre_matched_masks(matching)
        full = (1 << n) - 1
        cols = col_masks if col_masks is not None else _transpose(masks, n)
        grant_pointers = self.grant_pointers
        accept_pointers = self.accept_pointers
        rotate_pick = self._rotate_pick

        free_inputs = full & ~matched_inputs
        free_outputs = full & ~matched_outputs
        new_per_iteration: List[int] = []
        iterations_to_maximal: Optional[int] = None

        if union is None:
            union = 0
            for input_port in (
                _BITS16[free_inputs]
                if free_inputs < 65536
                else bits_of(free_inputs)
            ):
                union |= masks[input_port]
        union &= free_outputs

        for iteration in range(1, self.iterations + 1):
            grants = [0] * n
            granted = 0
            for output_port in (
                _BITS16[union] if union < 65536 else bits_of(union)
            ):
                column = cols[output_port] & free_inputs
                chosen = rotate_pick(column, grant_pointers[output_port])
                grants[chosen] |= 1 << output_port
                granted |= 1 << chosen

            for input_port in (
                _BITS16[granted] if granted < 65536 else bits_of(granted)
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

            free_outputs = full & ~matched_outputs
            union = 0
            for input_port in (
                _BITS16[free_inputs]
                if free_inputs < 65536
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
