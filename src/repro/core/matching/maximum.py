"""Maximum bipartite matching -- the paper's rejected alternative.

"Why not implement a maximum matching algorithm instead?  The simplest
answer is that we don't know of a fast enough algorithm...  Besides,
maximum matching can lead to starvation."  (Section 3.)

We implement Hopcroft-Karp so the benchmarks can (a) compare PIM's maximal
match sizes against the true maximum, and (b) reproduce the starvation
example: with input 1 always requesting outputs 2 and 3 and input 4 always
requesting output 3, the unique maximum matching always pairs 1->2 and
4->3, so the circuit from input 1 to output 3 never gets service.

The implementation is deterministic (ties broken by port order), which is
exactly the property that produces starvation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

Matching = Dict[int, int]

_INFINITY = float("inf")


def hopcroft_karp(n_ports: int, requests: Sequence[Set[int]]) -> Matching:
    """Maximum matching of inputs to requested outputs, O(E * sqrt(V)).

    Returns a dict mapping matched input ports to output ports.
    """
    match_input: List[Optional[int]] = [None] * n_ports  # input -> output
    match_output: List[Optional[int]] = [None] * n_ports  # output -> input
    adjacency: List[List[int]] = [sorted(wanted) for wanted in requests]

    def bfs() -> bool:
        distances: List[float] = [_INFINITY] * n_ports
        queue: deque = deque()
        for u in range(n_ports):
            if match_input[u] is None and adjacency[u]:
                distances[u] = 0
                queue.append(u)
        found_augmenting = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_output[v]
                if w is None:
                    found_augmenting = True
                elif distances[w] == _INFINITY:
                    distances[w] = distances[u] + 1
                    queue.append(w)
        bfs.distances = distances  # type: ignore[attr-defined]
        return found_augmenting

    def dfs(u: int) -> bool:
        distances = bfs.distances  # type: ignore[attr-defined]
        for v in adjacency[u]:
            w = match_output[v]
            if w is None or (
                distances[w] == distances[u] + 1 and dfs(w)
            ):
                match_input[u] = v
                match_output[v] = u
                return True
        distances[u] = _INFINITY
        return False

    while bfs():
        for u in range(n_ports):
            if match_input[u] is None and adjacency[u]:
                dfs(u)

    return {
        u: v for u, v in enumerate(match_input) if v is not None
    }


class MaximumMatcher:
    """Scheduler facade over :func:`hopcroft_karp`.

    Presents the same ``match`` interface as
    :class:`~repro.core.matching.bitmask.BitmaskPim` so the fabric
    simulator can swap schedulers.
    """

    name = "maximum"

    def __init__(self, n_ports: int) -> None:
        self.n_ports = n_ports

    def match(
        self,
        requests: Sequence[Set[int]],
        pre_matched: Optional[Matching] = None,
    ):
        from repro.core.matching.bitmask import MatchResult

        pre: Matching = dict(pre_matched) if pre_matched else {}
        taken_outputs = set(pre.values())
        trimmed: List[Set[int]] = []
        for input_port, wanted in enumerate(requests):
            if input_port in pre:
                trimmed.append(set())
            else:
                trimmed.append({o for o in wanted if o not in taken_outputs})
        matching = hopcroft_karp(self.n_ports, trimmed)
        matching.update(pre)
        return MatchResult(
            matching=matching,
            iterations_run=1,
            iterations_to_maximal=1,
            new_matches_per_iteration=[len(matching) - len(pre)],
        )
