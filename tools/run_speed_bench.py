#!/usr/bin/env python
"""Run the frozen speed workloads and maintain ``BENCH_speed.json``.

Two modes:

``python tools/run_speed_bench.py``
    Times every workload in :mod:`benchmarks.bench_speed` (best of
    ``--repeats`` interleaved rounds, GC disabled) and writes the
    results, plus the derived slow/fast speedup pairs, to
    ``BENCH_speed.json`` at the repo root.

``python tools/run_speed_bench.py --check``
    Re-times the workloads and compares against the committed baseline.
    Exits non-zero if any workload is more than ``--tolerance`` (default
    25%) slower than its baseline entry, or if a work checksum diverges
    (the timed work itself changed).  Skips cleanly (exit 0) when no
    baseline file exists, so fresh clones and CI bootstrap runs pass.

``python tools/run_speed_bench.py --compare BASELINE.json --tolerance 30``
    The CI regression gate: compare against an explicit baseline file
    with the tolerance given in *percent*.  Unlike ``--check``, a
    missing baseline is an error (exit 2) -- a gate that silently
    passes because its baseline vanished is no gate.  Combine with
    ``--quick`` to time only the workloads marked cheap enough for
    every-push smoke runs.

Timings are wall-clock and machine-dependent; the baseline is only
meaningful against timings taken on the same machine, which is exactly
the regression-gate use case.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_speed.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_speed import SPEEDUP_PAIRS, WORKLOADS  # noqa: E402

SCHEMA = 1


def time_workloads(
    repeats: int, verbose: bool = True, quick_only: bool = False
) -> dict:
    """Best-of-``repeats`` seconds per workload, interleaved.

    Interleaving the rounds (round 1 of every workload, then round 2,
    ...) spreads machine noise evenly across workloads instead of
    letting a slow spell land entirely on one of them, which matters for
    the derived slow/fast ratios.
    """
    workloads = [w for w in WORKLOADS if w.quick or not quick_only]
    results: dict = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(repeats):
            for workload in workloads:
                outcome = workload.run()
                entry = results.setdefault(
                    workload.name,
                    {
                        "description": workload.description,
                        "seconds": outcome.seconds,
                        "checksum": outcome.checksum,
                    },
                )
                if outcome.checksum != entry["checksum"]:
                    raise RuntimeError(
                        f"{workload.name}: checksum varied across repeats "
                        f"({entry['checksum']} vs {outcome.checksum}); "
                        "the workload is not deterministic"
                    )
                entry["seconds"] = min(entry["seconds"], outcome.seconds)
                if verbose:
                    print(
                        f"  [{round_index + 1}/{repeats}] {workload.name}: "
                        f"{outcome.seconds:.3f}s"
                    )
    finally:
        if gc_was_enabled:
            gc.enable()
    return results


def derive_speedups(results: dict) -> dict:
    speedups = {}
    for name, (slow, fast) in SPEEDUP_PAIRS.items():
        if slow in results and fast in results:
            speedups[name] = round(
                results[slow]["seconds"] / results[fast]["seconds"], 2
            )
    return speedups


def write_baseline(path: Path, results: dict) -> dict:
    document = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
        "speedups": derive_speedups(results),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def check_against_baseline(
    path: Path,
    repeats: int,
    tolerance: float,
    quick_only: bool = False,
    missing_ok: bool = True,
) -> int:
    if not path.exists():
        if missing_ok:
            print(f"no baseline at {path}; skipping speed check (run "
                  f"tools/run_speed_bench.py to create one)")
            return 0
        print(f"FAIL no baseline at {path}; the regression gate needs one")
        return 2
    baseline = json.loads(path.read_text())
    base_workloads = baseline.get("workloads", {})
    print(f"checking against baseline {path} (tolerance {tolerance:.0%})")
    current = time_workloads(repeats, quick_only=quick_only)
    # Workloads whose timing assumes more CPUs than this host has (the
    # parallel-speedup twins) cannot be gated here: with 2 cores a
    # 4-worker sweep legitimately times slower than its own baseline.
    # Their checksums are still enforced -- the work itself must not
    # change -- but their timings, and any speedup pair built on them,
    # are reported as informational only.
    cpus = os.cpu_count() or 1
    min_cpus = {w.name: getattr(w, "min_cpus", 1) for w in WORKLOADS}
    failures = []
    for name, entry in current.items():
        base = base_workloads.get(name)
        if base is None:
            print(f"  {name}: no baseline entry (new workload), skipping")
            continue
        if entry["checksum"] != base["checksum"]:
            failures.append(
                f"{name}: checksum {entry['checksum']} != baseline "
                f"{base['checksum']} (the timed work changed; re-baseline "
                "deliberately if intended)"
            )
            continue
        if min_cpus.get(name, 1) > cpus:
            print(
                f"  {name}: {entry['seconds']:.3f}s vs baseline "
                f"{base['seconds']:.3f}s -> informational (needs "
                f"{min_cpus[name]} cpus, host has {cpus}; checksum ok)"
            )
            continue
        limit = base["seconds"] * (1.0 + tolerance)
        verdict = "ok" if entry["seconds"] <= limit else "REGRESSION"
        print(
            f"  {name}: {entry['seconds']:.3f}s vs baseline "
            f"{base['seconds']:.3f}s -> {verdict}"
        )
        if entry["seconds"] > limit:
            failures.append(
                f"{name}: {entry['seconds']:.3f}s exceeds "
                f"{base['seconds']:.3f}s by more than {tolerance:.0%}"
            )
    cpu_limited_pairs = {
        pair: members
        for pair, members in SPEEDUP_PAIRS.items()
        if any(min_cpus.get(m, 1) > cpus for m in members)
        and all(m in current for m in members)
    }
    for pair, (slow, fast) in sorted(cpu_limited_pairs.items()):
        ratio = current[slow]["seconds"] / current[fast]["seconds"]
        print(
            f"  {pair}: {ratio:.2f}x (informational -- cpu-limited host)"
        )
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("speed check passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed rounds per workload; best time wins (default 3)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="regression gate: compare against this baseline file "
        "(--tolerance is in percent here; missing baseline = exit 2)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="time only the workloads marked quick (CI smoke subset)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="failure threshold: a fraction for --check (default 0.25), "
        "a percentage for --compare (default 25)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline path (default {DEFAULT_BASELINE})",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.check and args.compare:
        parser.error("--check and --compare are mutually exclusive")

    if args.compare:
        tolerance_pct = 25.0 if args.tolerance is None else args.tolerance
        if tolerance_pct <= 0:
            parser.error("--tolerance must be a positive percentage")
        return check_against_baseline(
            args.compare,
            args.repeats,
            tolerance_pct / 100.0,
            quick_only=args.quick,
            missing_ok=False,
        )

    if args.check:
        tolerance = 0.25 if args.tolerance is None else args.tolerance
        return check_against_baseline(
            args.output, args.repeats, tolerance, quick_only=args.quick
        )

    if args.quick:
        parser.error("--quick only applies to --check / --compare runs "
                     "(a quick-only baseline would gut the full gate)")
    print(f"timing {len(WORKLOADS)} workloads, best of {args.repeats} rounds")
    results = time_workloads(args.repeats)
    document = write_baseline(args.output, results)
    print(f"wrote {args.output}")
    for name, value in sorted(document["speedups"].items()):
        print(f"  {name}: {value}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
