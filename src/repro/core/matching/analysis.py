"""Legality and maximality checks for matchings.

These are the invariants the paper states for PIM: "The algorithm ensures
that the matching obtained is legal...  each output is paired with at most
one input...  each input is paired with at most one output", and iterating
until quiescence yields a *maximal* matching.  The matcher tests use
these helpers as oracles.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro.core.matching.maximum import hopcroft_karp

Matching = Dict[int, int]


def is_legal_matching(
    requests: Sequence[Set[int]], matching: Matching
) -> bool:
    """Each input at most once, each output at most once, edges requested.

    Pairs not present in ``requests`` are allowed only if callers include
    them in the request sets (guaranteed-slot reservations are passed in
    as pre-matched pairs and excluded before calling this).
    """
    outputs_seen: Set[int] = set()
    # det: allow(order-independent validation predicate; returns a bool)
    for input_port, output_port in matching.items():
        if not 0 <= input_port < len(requests):
            return False
        if output_port in outputs_seen:
            return False
        outputs_seen.add(output_port)
        if output_port not in requests[input_port]:
            return False
    return True


def is_maximal_matching(
    requests: Sequence[Set[int]], matching: Matching
) -> bool:
    """No unmatched input still wants an unmatched output."""
    matched_outputs = set(matching.values())
    for input_port, wanted in enumerate(requests):
        if input_port in matching:
            continue
        for output_port in wanted:
            if output_port not in matched_outputs:
                return False
    return True


def maximum_size(requests: Sequence[Set[int]]) -> int:
    """Size of the true maximum matching (Hopcroft-Karp oracle)."""
    return len(hopcroft_karp(len(requests), requests))
