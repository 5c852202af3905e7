"""The oracle: section 3's matchers with sets and dictionaries.

Nothing the simulator runs imports this module.  It is the clearest
rendering of the paper's request/grant/accept rounds, kept as the
reference that the tests and the conformance gate
(:mod:`repro.conform.oracle`, ``tests/conform/corpus.json``) compare the
bitmask kernel (:mod:`repro.core.matching.bitmask`) against, bit for bit
from a shared seed.

**Parallel iterative matching.**  Section 3, verbatim structure:

1. Each unmatched input sends a request to *every* output for which it
   has a buffered cell.
2. If an unmatched output receives any requests, it chooses one
   *randomly* to grant.
3. If an input receives any grants, it chooses one to accept.

The three steps repeat, "retaining the matches made in previous
iterations"; iteration fills in the gaps.  Repeating until no more matches
form yields a *maximal* matching; the paper proves the expected number of
iterations to reach one is at most ``log2 N + 4/3`` and reports that
simulations find a maximal match within 4 iterations more than 98% of the
time.  AN2 hardware runs exactly 3 iterations because of the half-
microsecond slot budget.

:class:`ParallelIterativeMatcher` mirrors the distributed structure: each
step is computed per-port from that port's local view (the requests/grants
it received), with the "dedicated wires" modelled by the request/grant/
accept dictionaries exchanged between iterations.

**iSLIP-style round-robin matching -- an engineering ablation.**  The
paper argues that "the randomness in parallel iterative matching
protects against starvation".  A later line of work (McKeown's iSLIP)
replaces the random grant/accept choices with rotating round-robin
pointers, achieving the same starvation freedom deterministically and
desynchronizing the pointers under load.  :class:`IslipMatcher` is the
reference for the ablation the E2/E11 benchmarks run inside the same
iterate-to-fill-gaps framework.  Pointer discipline (standard iSLIP):
grant and accept pointers advance to one past the chosen port, and only
when the grant was accepted in the *first* iteration of a slot.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.core.matching.bitmask import MatchResult, Matching


class ParallelIterativeMatcher:
    """AN2's randomized crossbar scheduler.

    Args:
        n_ports: switch radix N (16 for AN2).
        iterations: rounds per slot (AN2 uses 3).
        rng: randomness source for the grant and accept choices.
    """

    name = "pim"

    def __init__(
        self,
        n_ports: int,
        iterations: int = 3,
        rng: Optional[random.Random] = None,
    ) -> None:
        if n_ports <= 0:
            raise ValueError(f"n_ports must be positive, got {n_ports}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.n_ports = n_ports
        self.iterations = iterations
        self.rng = rng if rng is not None else random.Random(0)

    def match(
        self,
        requests: Sequence[Set[int]],
        pre_matched: Optional[Matching] = None,
    ) -> MatchResult:
        """Compute one slot's matching.

        Args:
            requests: ``requests[i]`` is the set of outputs input ``i`` has
                buffered cells for (its non-empty virtual-circuit queues).
            pre_matched: input -> output pairs already committed this slot
                (guaranteed-traffic reservations); PIM only fills the
                remaining inputs and outputs, which is how best-effort
                traffic rides the unreserved slots (section 4).
        """
        self._validate(requests)
        matching: Matching = dict(pre_matched) if pre_matched else {}
        matched_outputs: Set[int] = set(matching.values())
        if len(matched_outputs) != len(matching):
            raise ValueError("pre_matched pairs share an output")
        iterations_to_maximal: Optional[int] = None
        new_per_iteration: List[int] = []

        for iteration in range(1, self.iterations + 1):
            added = self._iterate(requests, matching, matched_outputs)
            new_per_iteration.append(added)
            if iterations_to_maximal is None and self._is_maximal(
                requests, matching, matched_outputs
            ):
                iterations_to_maximal = iteration
                # Later iterations cannot add matches once maximal; stop.
                break

        return MatchResult(
            matching=matching,
            iterations_run=len(new_per_iteration),
            iterations_to_maximal=iterations_to_maximal,
            new_matches_per_iteration=new_per_iteration,
        )

    # ------------------------------------------------------------------
    def _iterate(
        self,
        requests: Sequence[Set[int]],
        matching: Matching,
        matched_outputs: Set[int],
    ) -> int:
        """One request/grant/accept round.  Mutates ``matching`` in place."""
        # Step 1: each unmatched input requests every output it has cells
        # for.  We record, per output, who asked.
        requests_at_output: Dict[int, List[int]] = {}
        for input_port, wanted in enumerate(requests):
            if input_port in matching:
                continue
            for output_port in wanted:
                requests_at_output.setdefault(output_port, []).append(input_port)

        # Step 2: each unmatched output grants one request at random.
        #
        # Determinism contract: outputs are visited in ascending port
        # order (and inputs likewise in step 3), so a fixed-seed run
        # consumes RNG draws in a reproducible sequence.  The hardware
        # ports all decide simultaneously, so any visiting order is
        # faithful -- but tests, benchmarks, and the bitmask kernel
        # (:mod:`repro.core.matching.bitmask`, which iterates its masks
        # ascending and is bit-identical to this implementation for a
        # shared seed) rely on this exact order.  Do not change it.
        grants_at_input: Dict[int, List[int]] = {}
        for output_port in sorted(requests_at_output):
            if output_port in matched_outputs:
                continue
            contenders = requests_at_output[output_port]
            chosen = contenders[self.rng.randrange(len(contenders))]
            grants_at_input.setdefault(chosen, []).append(output_port)

        # Step 3: each input with grants accepts one at random, inputs
        # ascending (same determinism contract as step 2).
        added = 0
        for input_port in sorted(grants_at_input):
            grants = grants_at_input[input_port]
            accepted = grants[self.rng.randrange(len(grants))]
            matching[input_port] = accepted
            matched_outputs.add(accepted)
            added += 1
        return added

    def _is_maximal(
        self,
        requests: Sequence[Set[int]],
        matching: Matching,
        matched_outputs: Set[int],
    ) -> bool:
        """No unmatched input still has a cell for an unmatched output."""
        for input_port, wanted in enumerate(requests):
            if input_port in matching:
                continue
            for output_port in wanted:
                if output_port not in matched_outputs:
                    return False
        return True

    def _validate(self, requests: Sequence[Set[int]]) -> None:
        if len(requests) != self.n_ports:
            raise ValueError(
                f"expected {self.n_ports} request sets, got {len(requests)}"
            )
        for input_port, wanted in enumerate(requests):
            for output_port in wanted:
                if not 0 <= output_port < self.n_ports:
                    raise ValueError(
                        f"input {input_port} requests bad output {output_port}"
                    )


class IslipMatcher:
    """Round-robin request/grant/accept with pointer desynchronization."""

    name = "islip"

    def __init__(self, n_ports: int, iterations: int = 3) -> None:
        if n_ports <= 0:
            raise ValueError(f"n_ports must be positive, got {n_ports}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.n_ports = n_ports
        self.iterations = iterations
        self.grant_pointers: List[int] = [0] * n_ports  # per output
        self.accept_pointers: List[int] = [0] * n_ports  # per input

    def reset(self) -> None:
        self.grant_pointers = [0] * self.n_ports
        self.accept_pointers = [0] * self.n_ports

    def _rotate_pick(self, candidates: Sequence[int], pointer: int) -> int:
        """First candidate at or after ``pointer`` in circular port order."""
        best = min(candidates, key=lambda c: (c - pointer) % self.n_ports)
        return best

    def match(
        self,
        requests: Sequence[Set[int]],
        pre_matched: Optional[Matching] = None,
    ) -> MatchResult:
        if len(requests) != self.n_ports:
            raise ValueError(
                f"expected {self.n_ports} request sets, got {len(requests)}"
            )
        matching: Matching = dict(pre_matched) if pre_matched else {}
        matched_outputs: Set[int] = set(matching.values())
        new_per_iteration: List[int] = []
        iterations_to_maximal: Optional[int] = None

        for iteration in range(1, self.iterations + 1):
            requests_at_output: Dict[int, List[int]] = {}
            for input_port, wanted in enumerate(requests):
                if input_port in matching:
                    continue
                for output_port in wanted:
                    if output_port not in matched_outputs:
                        requests_at_output.setdefault(output_port, []).append(
                            input_port
                        )
            # Outputs grant (and inputs accept, below) in ascending port
            # order.  Each decision touches only that port's own pointer
            # slot, so the order is behavior-neutral -- but the insertion
            # order of these dicts descends from iterating the request
            # *sets* above, and sorting here keeps the visit order (and
            # the bitmask kernel's ascending-bit order) independent of
            # it.
            grants_at_input: Dict[int, List[int]] = {}
            for output_port in sorted(requests_at_output):
                contenders = requests_at_output[output_port]
                chosen = self._rotate_pick(
                    contenders, self.grant_pointers[output_port]
                )
                grants_at_input.setdefault(chosen, []).append(output_port)
            added = 0
            for input_port in sorted(grants_at_input):
                grants = grants_at_input[input_port]
                accepted = self._rotate_pick(
                    grants, self.accept_pointers[input_port]
                )  # grants list order is irrelevant to the rotating pick
                matching[input_port] = accepted
                matched_outputs.add(accepted)
                added += 1
                if iteration == 1:
                    # Pointers move only on first-iteration accepts; this is
                    # the rule that guarantees 100% throughput for uniform
                    # traffic and prevents starvation.
                    self.grant_pointers[accepted] = (
                        input_port + 1
                    ) % self.n_ports
                    self.accept_pointers[input_port] = (
                        accepted + 1
                    ) % self.n_ports
            new_per_iteration.append(added)
            if iterations_to_maximal is None and self._is_maximal(
                requests, matching, matched_outputs
            ):
                iterations_to_maximal = iteration
                break

        return MatchResult(
            matching=matching,
            iterations_run=len(new_per_iteration),
            iterations_to_maximal=iterations_to_maximal,
            new_matches_per_iteration=new_per_iteration,
        )

    def _is_maximal(
        self,
        requests: Sequence[Set[int]],
        matching: Matching,
        matched_outputs: Set[int],
    ) -> bool:
        for input_port, wanted in enumerate(requests):
            if input_port in matching:
                continue
            for output_port in wanted:
                if output_port not in matched_outputs:
                    return False
        return True
