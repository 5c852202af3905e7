#!/usr/bin/env python
"""Run a fault-injection scenario and report its invariant verdicts.

The paper's pull-the-plug claim, as a command::

    PYTHONPATH=src python tools/run_scenario.py pull_the_plug

Other canned scenarios (``--list`` to enumerate)::

    PYTHONPATH=src python tools/run_scenario.py flapping_link
    PYTHONPATH=src python tools/run_scenario.py credit_loss
    PYTHONPATH=src python tools/run_scenario.py corruption_burst

Randomized chaos (random bi-connected topology + random plan,
reproducible from the seed)::

    PYTHONPATH=src python tools/run_scenario.py --random 42 --faults 4

The exit code is 0 only if every invariant passed, so CI can gate on
it.  ``--trace-out FILE`` additionally writes the JSONL trace
(categories: reconfig, flowcontrol, faults, journey) for
``tools/trace_report.py``; the reconfiguration timeline is rendered
inline either way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.faults.runner import ScenarioRunner  # noqa: E402
from repro.faults.scenarios import CANNED, build_random_scenario  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402

from trace_report import build_timeline  # noqa: E402

TRACE_CATEGORIES = ("reconfig", "flowcontrol", "faults", "journey")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a fault scenario and check recovery invariants."
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help=f"canned scenario name ({', '.join(sorted(CANNED))})",
    )
    parser.add_argument(
        "--random", type=int, default=None, metavar="SEED",
        help="run a randomized chaos scenario derived from SEED instead",
    )
    parser.add_argument(
        "--faults", type=int, default=3,
        help="number of faults in a --random plan (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the canned scenario's default network seed",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the JSONL trace here for tools/trace_report.py",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="dump the flight recorder here when an invariant fails "
        "(defaults to $REPRO_FLIGHT_DIR if set)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list canned scenarios and exit"
    )
    parser.add_argument(
        "--no-timeline", action="store_true",
        help="skip the reconfiguration timeline",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in sorted(CANNED.items()):
            print(f"{name:16s} {scenario.claim}")
        return 0

    if args.random is not None:
        net, plan, loads = build_random_scenario(
            args.random, n_faults=args.faults
        )
        title = f"chaos (seed {args.random}, {len(plan)} faults)"
    elif args.scenario is not None:
        scenario = CANNED.get(args.scenario)
        if scenario is None:
            parser.error(
                f"unknown scenario {args.scenario!r}; "
                f"choose from {', '.join(sorted(CANNED))} or use --random"
            )
        if args.seed is not None:
            net, plan, loads = scenario.build(args.seed)
        else:
            net, plan, loads = scenario.build()
        title = f"{scenario.name} -- {scenario.claim}"
    else:
        parser.error("give a scenario name, --random SEED, or --list")
        return 2  # unreachable; parser.error raises

    tracer = Tracer(categories=set(TRACE_CATEGORIES))
    net.sim.tracer = tracer

    print(f"scenario: {title}")
    print()
    result = ScenarioRunner(net, plan, loads, flight_dir=args.flight_dir).run()
    print(result.report())

    if args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        count = tracer.write_jsonl(args.trace_out)
        print(f"\n{count} trace records written to {args.trace_out}")

    if not args.no_timeline:
        print()
        print(build_timeline([r.to_dict() for r in tracer.records]))
        fault_records = [r for r in tracer.records if r.category == "faults"]
        if fault_records:
            print()
            print("Fault events")
            print("============")
            for record in fault_records:
                if record.name in ("scenario.begin", "scenario.end"):
                    continue
                data = ", ".join(
                    f"{k}={v}" for k, v in record.payload.items()
                )
                print(f"  t={record.time:12.1f}us  {record.name:28s} {data}")

    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
