#!/usr/bin/env python
"""One-shot conformance gate: digest stability + differential sweep + lint.

Certifies the repo's determinism contract (DESIGN.md, "Determinism
contract") in three stages:

1. **Digest stability** -- runs the canonical replay scenario
   (:func:`repro.conform.digest.digest_scenario`) several times in this
   process and once per ``PYTHONHASHSEED`` value in a subprocess; every
   run must produce the identical hex digest.
2. **Differential sweep** -- four families: drives the reference
   matchers (``Pim``/``Islip``) against their bitmask fast-path
   counterparts cell-by-cell from identical seeds across fabric sizes
   and load patterns, cross-checks AN1 against AN2 routing on shared
   random topologies, and runs the rows of the whole-``Network`` case
   table (:data:`repro.conform.oracle.TWINS`): the sparse walk of the
   slot waves against the dense one, and the closed-form link monitors
   against the eager loop under seeded fault schedules.  Any divergence is reported as the first divergent
   case and fails the gate.
3. **Nondeterminism lint** -- ``tools/lint_determinism.py`` over
   ``src/repro``.

Exit status 0 iff all three pass.

Usage::

    python tools/run_conformance.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.conform.digest import digest_scenario  # noqa: E402
from repro.conform.oracle import (  # noqa: E402
    TWINS,
    matcher_sweep,
    routing_sweep,
    sweep,
)

HASHSEEDS = ("0", "1", "12345", "random")


def _subprocess_digest(seed: int, hashseed: str) -> str:
    """Compute the scenario digest in a fresh interpreter."""
    code = (
        "from repro.conform.digest import digest_scenario;"
        f"print(digest_scenario(seed={seed}))"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=str(REPO), check=True,
    )
    return out.stdout.strip()


def check_digest_stability(runs: int, scenario_seed: int) -> bool:
    print(f"[1/3] digest stability (seed={scenario_seed}) ...")
    t0 = time.time()
    digests = [digest_scenario(seed=scenario_seed) for _ in range(runs)]
    for hashseed in HASHSEEDS:
        digests.append(_subprocess_digest(scenario_seed, hashseed))
    distinct = set(digests)
    ok = len(distinct) == 1
    label = "OK" if ok else "FAIL"
    print(
        f"      {runs} in-process runs + {len(HASHSEEDS)} PYTHONHASHSEED "
        f"subprocesses -> {len(distinct)} distinct digest(s) "
        f"[{label}, {time.time() - t0:.1f}s]"
    )
    if ok:
        print(f"      digest {digests[0]}")
    else:
        for d in sorted(distinct):
            print(f"      saw {d}")
        # Leave an autopsy artifact: replay the scenario once more with
        # its flight recorder dumped, so CI can upload what the protocol
        # layers were doing in the run that produced this digest.
        directory = os.environ.get("REPRO_FLIGHT_DIR") or "flight-dumps"
        dump = Path(directory) / f"flight-digest-mismatch-seed{scenario_seed}.jsonl"
        try:
            digest_scenario(seed=scenario_seed, flight_dump=str(dump))
            print(f"      flight recorder dumped to {dump}")
        except OSError as exc:  # pragma: no cover - dump dir unwritable
            print(f"      (flight dump failed: {exc})")
    return ok


def check_differential(n_seeds: int, n_slots: int) -> bool:
    print(f"[2/3] differential sweep ({n_seeds} seeds) ...")
    t0 = time.time()
    seeds = list(range(n_seeds))
    divergences, corpus = matcher_sweep(seeds, n_slots=n_slots)
    routing_div, routing_corpus = routing_sweep(seeds)
    twin_div, twin_records = sweep(seeds)
    found = divergences + routing_div + twin_div
    counts = [
        sum(record["row"] == row.name for record in twin_records)
        for row, _ in TWINS
    ]
    label = "OK" if not found else "FAIL"
    print(
        f"      4 families: {len(corpus)} matcher cases + "
        f"{len(routing_corpus)} routing cases + "
        f"{counts[0]} parking cases + {counts[1]} monitor schedules -> "
        f"{len(found)} divergence(s) [{label}, {time.time() - t0:.1f}s]"
    )
    for div in found:
        print(f"      {div}")
    return not found


def check_lint() -> bool:
    print("[3/3] nondeterminism lint ...")
    out = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_determinism.py")],
        capture_output=True, text=True, cwd=str(REPO),
    )
    ok = out.returncode == 0
    for line in out.stdout.strip().splitlines():
        print(f"      {line}")
    if out.stderr.strip():
        print(out.stderr.strip())
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep for local iteration (5 seeds, 60 slots)",
    )
    args = parser.parse_args(argv)
    seeds, slots = (5, 60) if args.quick else (20, 200)
    results = [
        check_digest_stability(runs=3, scenario_seed=1),
        check_differential(seeds, slots),
        check_lint(),
    ]
    if all(results):
        print("conformance: PASS")
        return 0
    print("conformance: FAIL")
    return 1


if __name__ == "__main__":
    sys.exit(main())
