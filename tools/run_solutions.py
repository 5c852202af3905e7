#!/usr/bin/env python
"""Compare loss-recovery solutions across fault scenarios (EXPERIMENTS A6).

Runs a scenario x solution matrix -- every run rebuilt from the same
seed, so all solutions face the identical fault plan and traffic -- and
emits one comparison table::

    PYTHONPATH=src python tools/run_solutions.py                 # defaults
    PYTHONPATH=src python tools/run_solutions.py corruption_burst
    PYTHONPATH=src python tools/run_solutions.py --random 42 --random 43
    PYTHONPATH=src python tools/run_solutions.py --solutions do_nothing,link_retx

Columns: packets sent/delivered/lost (the penalty), end-to-end
retransmissions (``e2e_arq``), link-local resends (``link_retx``),
reconfiguration epochs consumed by repairs (``disable_and_repair``),
cells corrupted on the wire, whether the network settled, and the
invariant verdict.

``--gate`` adds the CI acceptance checks: every run's invariants must
pass, and on ``corruption_burst`` ``link_retx`` must recover with
strictly fewer end-to-end retransmissions than ``e2e_arq`` (that is the
point of sub-RTT link-local recovery).  Exit code 0 only if everything
holds, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.faults import (  # noqa: E402
    CANNED,
    ScenarioResult,
    ScenarioRunner,
    build_random_scenario,
)
from repro.solutions import SOLUTIONS, make_solution  # noqa: E402

DEFAULT_SCENARIOS = ("corruption_burst", "flapping_link")


def run_one(
    scenario_name: str,
    solution_name: str,
    seed: Optional[int],
    random_seed: Optional[int],
    flight_dir: Optional[str],
) -> Tuple[ScenarioResult, int]:
    """Build the scenario fresh (same seed => same faults), run it, and
    return the result plus cells corrupted on the wire."""
    if random_seed is not None:
        net, plan, loads = build_random_scenario(random_seed)
    else:
        build = CANNED[scenario_name].build
        net, plan, loads = build(seed) if seed is not None else build()
    result = ScenarioRunner(
        net,
        plan,
        loads,
        solution=make_solution(solution_name),
        flight_dir=flight_dir,
    ).run()
    corrupted = sum(link.cells_corrupted for link in net.links.values())
    return result, corrupted


def render_table(rows: List[Tuple[str, ...]]) -> str:
    header = (
        "scenario", "solution", "sent", "delivered", "lost",
        "e2e_retx", "link_resends", "epochs", "corrupted",
        "settled", "invariants",
    )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare loss-recovery solutions across fault scenarios."
    )
    parser.add_argument(
        "scenarios", nargs="*", default=[],
        help=f"canned scenarios (default: {', '.join(DEFAULT_SCENARIOS)}; "
        f"available: {', '.join(sorted(CANNED))})",
    )
    parser.add_argument(
        "--random", type=int, action="append", default=[], metavar="SEED",
        help="also run a chaos scenario derived from SEED (repeatable)",
    )
    parser.add_argument(
        "--solutions", default=None,
        help="comma-separated solution names "
        f"(default: all of {', '.join(sorted(SOLUTIONS))})",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the canned scenarios' default network seed",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="dump the flight recorder here when an invariant fails "
        "(defaults to $REPRO_FLIGHT_DIR if set)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="enforce the A6 acceptance checks (CI mode)",
    )
    args = parser.parse_args(argv)

    scenario_names = list(args.scenarios) or list(DEFAULT_SCENARIOS)
    for name in scenario_names:
        if name not in CANNED:
            parser.error(
                f"unknown scenario {name!r}; "
                f"choose from {', '.join(sorted(CANNED))}"
            )
    solution_names = (
        [s.strip() for s in args.solutions.split(",") if s.strip()]
        if args.solutions is not None
        else sorted(SOLUTIONS)
    )
    for name in solution_names:
        if name not in SOLUTIONS:
            parser.error(
                f"unknown solution {name!r}; "
                f"choose from {', '.join(sorted(SOLUTIONS))}"
            )

    jobs: List[Tuple[str, Optional[int], Optional[int]]] = [
        (name, args.seed, None) for name in scenario_names
    ] + [(f"chaos-{seed}", None, seed) for seed in args.random]

    rows: List[Tuple[str, ...]] = []
    results: Dict[Tuple[str, str], ScenarioResult] = {}
    failures: List[str] = []
    for scenario_label, seed, random_seed in jobs:
        for solution_name in solution_names:
            result, corrupted = run_one(
                scenario_label if random_seed is None else "",
                solution_name,
                seed,
                random_seed,
                args.flight_dir,
            )
            results[(scenario_label, solution_name)] = result
            rows.append(_row(scenario_label, solution_name, result, corrupted))
            if not result.passed:
                failures.append(
                    f"{scenario_label}/{solution_name}: "
                    + "; ".join(
                        r.name for r in result.invariants if not r.passed
                    )
                )
                if result.flight_dump:
                    print(
                        f"flight recorder dumped: {result.flight_dump}",
                        file=sys.stderr,
                    )

    print(render_table(rows))

    if failures:
        print()
        print("invariant failures:")
        for failure in failures:
            print(f"  {failure}")

    if args.gate:
        gate_errors = list(failures)
        key_retx = ("corruption_burst", "link_retx")
        key_arq = ("corruption_burst", "e2e_arq")
        if key_retx in results and key_arq in results:
            retx = int(
                results[key_retx].solution_metrics.get(
                    "e2e_retransmissions", 0
                )
            )
            arq = int(
                results[key_arq].solution_metrics.get(
                    "e2e_retransmissions", 0
                )
            )
            if not retx < arq:
                gate_errors.append(
                    f"link_retx should beat e2e_arq on end-to-end "
                    f"retransmissions for corruption_burst: {retx} vs {arq}"
                )
            else:
                print()
                print(
                    f"gate: link_retx used {retx} end-to-end "
                    f"retransmissions vs e2e_arq's {arq} -- link-local "
                    f"recovery wins"
                )
        elif "corruption_burst" in scenario_names:
            gate_errors.append(
                "gate mode needs both link_retx and e2e_arq on "
                "corruption_burst"
            )
        if gate_errors:
            print()
            print("GATE FAILED:")
            for error in gate_errors:
                print(f"  {error}")
            return 1
        print("gate: all checks passed")
        return 0

    return 1 if failures else 0


def _row(
    scenario: str, solution: str, result: ScenarioResult, corrupted: int
) -> Tuple[str, ...]:
    metrics = result.solution_metrics
    if solution == "e2e_arq" and metrics.get("packets_transmitted"):
        # ARQ replaces the recorded loads; judge it by its transfers.
        # "sent" is wire packets (retransmissions included); "lost" is
        # the waste the end-to-end recovery paid, not residual loss.
        sent = int(metrics["packets_transmitted"])
        useful = round(metrics.get("efficiency", 0.0) * sent)
        delivered, lost = useful, sent - useful
    else:
        sent = sum(len(p) for p in result.sent.values())
        delivered = min(result.delivered, sent)
        lost = sent - delivered
    settled = "yes" if result.settled_at_us is not None else "NO"
    verdict = "pass" if result.passed else "FAIL"
    return (
        scenario,
        solution,
        str(sent),
        str(delivered),
        str(lost),
        str(int(metrics.get("e2e_retransmissions", 0))),
        str(int(metrics.get("resends", 0))),
        str(int(metrics.get("epochs_consumed", 0))),
        str(corrupted),
        settled,
        verdict,
    )


if __name__ == "__main__":
    raise SystemExit(main())
