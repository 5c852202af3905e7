#!/usr/bin/env python
"""Run the frozen speed workloads and maintain ``BENCH_speed.json``.

Two modes:

``python tools/run_speed_bench.py``
    Times every workload in :mod:`benchmarks.bench_speed` (best of
    ``--repeats`` interleaved rounds, GC disabled) and writes the
    results, plus the derived slow/fast speedup pairs, to
    ``BENCH_speed.json`` at the repo root.

``python tools/run_speed_bench.py --compare BASELINE.json --tolerance 25``
    The regression gate: re-times the workloads and compares against an
    explicit baseline file.  Exits 1 if any workload is more than
    ``--tolerance`` percent (default 25) slower than its baseline entry,
    or if a work checksum diverges (the timed work itself changed), and
    2 if the baseline is missing -- a gate that silently passes because
    its baseline vanished is no gate.  Combine with ``--quick`` to time
    only the workloads marked cheap enough for every-push smoke runs.

Timings are wall-clock and machine-dependent, and a machine's core
speed drifts between sessions.  So every round also times a fixed
pure-Python loop (``calibrate()`` of ``benchmarks/e2e/run.py``); the
baseline records its best seconds, and ``--compare`` scales each limit
by that loop's best seconds now over its recorded seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_speed.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_speed import SPEEDUP_PAIRS, WORKLOADS  # noqa: E402
from benchmarks.e2e.run import calibrate  # noqa: E402

SCHEMA = 1


def time_workloads(
    repeats: int, verbose: bool = True, quick_only: bool = False
) -> tuple[dict, float]:
    """Best-of-``repeats`` seconds per workload, interleaved, and the
    best seconds of the calibration loop timed once per round.

    Interleaving the rounds (round 1 of every workload, then round 2,
    ...) spreads machine noise evenly across workloads instead of
    letting a slow spell land entirely on one of them, which matters for
    the derived slow/fast ratios.
    """
    workloads = [w for w in WORKLOADS if w.quick or not quick_only]
    results: dict = {}
    calibration_s = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(repeats):
            calibration_s = min(calibration_s, calibrate())
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
    return results, calibration_s


def derive_speedups(results: dict) -> dict:
    speedups = {}
    for name, (slow, fast) in SPEEDUP_PAIRS.items():
        if slow in results and fast in results:
            speedups[name] = round(
                results[slow]["seconds"] / results[fast]["seconds"], 2
            )
    return speedups


def write_baseline(path: Path, results: dict, calibration_s: float) -> dict:
    document = {
        "schema": SCHEMA,
        "calibration_s": calibration_s,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
        "speedups": derive_speedups(results),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def check_against_baseline(
    path: Path, repeats: int, tolerance: float, quick_only: bool = False
) -> int:
    """Re-time the workloads against the baseline at ``path``;
    ``tolerance`` is a fraction (0.25 = 25% slower fails) of the
    baseline seconds scaled to this machine's calibration loop."""
    if not path.exists():
        print(f"FAIL no baseline at {path}; the regression gate needs one")
        return 2
    baseline = json.loads(path.read_text())
    if "calibration_s" not in baseline:
        print(f"FAIL {path} records no calibration_s; re-record it")
        return 2
    base_workloads = baseline.get("workloads", {})
    print(f"checking against baseline {path} (tolerance {tolerance:.0%})")
    current, calibration_s = time_workloads(repeats, quick_only=quick_only)
    scale = calibration_s / baseline["calibration_s"]
    print(
        f"  calibration loop {calibration_s:.3f}s vs baseline "
        f"{baseline['calibration_s']:.3f}s -> limits x{scale:.2f}"
    )
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
        scaled = base["seconds"] * scale
        limit = scaled * (1.0 + tolerance)
        verdict = "ok" if entry["seconds"] <= limit else "REGRESSION"
        print(
            f"  {name}: {entry['seconds']:.3f}s vs scaled baseline "
            f"{scaled:.3f}s -> {verdict}"
        )
        if entry["seconds"] > limit:
            failures.append(
                f"{name}: {entry['seconds']:.3f}s exceeds "
                f"{scaled:.3f}s by more than {tolerance:.0%}"
            )
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("speed check passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
        "instead of rewriting it (missing baseline = exit 2)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="time only the workloads marked quick (CI smoke subset)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        help="--compare failure threshold in percent (default 25)",
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

    if args.compare:
        if args.tolerance <= 0:
            parser.error("--tolerance must be a positive percentage")
        return check_against_baseline(
            args.compare,
            args.repeats,
            args.tolerance / 100.0,
            quick_only=args.quick,
        )

    if args.quick:
        parser.error("--quick only applies to --compare runs "
                     "(a quick-only baseline would gut the full gate)")
    print(f"timing {len(WORKLOADS)} workloads, best of {args.repeats} rounds")
    results, calibration_s = time_workloads(args.repeats)
    document = write_baseline(args.output, results, calibration_s)
    print(f"wrote {args.output} (calibration loop {calibration_s:.3f}s)")
    for name, value in sorted(document["speedups"].items()):
        print(f"  {name}: {value}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
