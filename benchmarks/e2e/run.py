#!/usr/bin/env python3
"""End-to-end benchmark: whole-``Network`` workloads, layer by layer.

One workload, one process (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload up and runs it in *rounds* -- every round a fresh
``Network`` on the same seed -- until ``S`` host seconds have gone by
(at least ``MIN_ROUNDS``).  Host-time metrics are medians over the rounds;
simulated ones (``*_us``, counts) must read the same in every round, which
is checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs one untraced reference round and then traced rounds, and prints the
per-layer metrics.  The last line of output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero if the correctness gate failed.

The whole suite (what a person runs)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats 5] [--seconds S]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json

runs the four workloads interleaved (A B C D A B C D ...), each in a
fresh subprocess, then one traced pass per workload, and writes
``benchmarks/e2e/out/results.json``.

Host time and simulated time are named apart everywhere: ``*_s`` and
``*_per_s`` are host wall-clock, ``*_us`` are simulated microseconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Units of the end-to-end metrics that are simulated, and so repeat
#: exactly for one seed.
SIMULATED_UNITS = ("us", "Mb/s")
#: Rounds a run makes however little time it is given: enough for a
#: median, and for the same-seed determinism check to mean something.
MIN_ROUNDS = 3
IMPORTS = 5
#: Fixed work for the calibration loop: ~0.5 s on the reference box.
CALIBRATION_STEPS = 12_000_000
#: What a workload needs of the program, imported (and timed) up front.
PROGRAM_MODULES = (
    "repro.net.network",
    "repro.net.topogen",
    "repro.switch.switch",
    "repro.traffic",
)


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def time_imports() -> List[float]:
    """Host seconds to import the program, ``IMPORTS`` times over (the
    first may compile bytecode; the median is reported)."""
    import importlib

    sys.path.insert(0, str(ROOT / "src"))
    times = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[name]
        started = perf_counter()
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        times.append(perf_counter() - started)
    return times


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop: a noise diagnostic
    printed beside the results, not a metric."""
    started = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i & 7
    return perf_counter() - started


def run_round(scenario_cls, seed: int, scale: float, recorder=None) -> dict:
    """One fresh ``Network``: set-up, the timed region, the fault cycle
    and the correctness gate."""
    gc.collect()
    started = perf_counter()
    scenario = scenario_cls(seed, scale)
    scenario.prepare()
    setup_s = perf_counter() - started
    gc.collect()
    before = scenario.counts()
    if recorder is not None:
        recorder.reset()
        recorder.start(scenario.net.sim)
    started = perf_counter()
    try:
        scenario.timed()
    finally:
        run_s = perf_counter() - started
        if recorder is not None:
            recorder.stop()
    after = scenario.counts()
    counts = {name: after[name] - before[name] for name in after}
    counts["core.routing.cache_hit_ratio"] = scenario.route_cache_hit_ratio()
    scenario.finish()
    counts["net.host.packets_sent"] = scenario.offered_packets
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "counts": counts,
        "sim_us": dict(scenario.sim_us),
        "latency_samples": len(scenario.latencies_us),
        "attempted": scenario.attempted,
        "failed": scenario.failed,
        "failures": scenario.failures,
    }


def deterministic_part(round_result: dict) -> dict:
    """What must repeat exactly for one seed."""
    return {
        "counts": round_result["counts"],
        "sim_us": round_result["sim_us"],
        "attempted": round_result["attempted"],
        "failed": round_result["failed"],
    }


def end_to_end_metrics(rounds: List[dict], import_s: float) -> Dict[str, float]:
    first = rounds[0]
    counts = first["counts"]
    run_s = statistics.median(r["run_s"] for r in rounds)
    cells = counts["net.host.cells_delivered"]
    metrics = {
        "setup_s": import_s + statistics.median(r["setup_s"] for r in rounds),
        "run_s": run_s,
        "cells_per_s": statistics.median(
            cells / r["run_s"] for r in rounds
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics.update(first["sim_us"])
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    reference: dict, traced: List[dict], recordings: List[dict], missing
) -> Dict[str, Optional[float]]:
    """The per-layer table.  Counts come from the program's statistics
    over the timed region of the (identical) rounds; ``*_self_s`` are
    medians over the traced rounds; speeds come from the untraced
    reference round."""
    from spans import (
        FLOWCONTROL, HOST, INGRESS, LINK, MATCHING, MONITOR, OTHER,
        RECONFIG, ROUTING, TICK, TRAFFIC,
    )

    counts = reference["counts"]

    def self_s(layer: str) -> float:
        return statistics.median(r["self_s"].get(layer, 0.0) for r in recordings)

    def events(layer: str) -> int:
        return recordings[0]["root_events"].get(layer, 0)

    def calls(dotted: str) -> int:
        return recordings[0]["boundary_calls"].get(dotted, 0)

    traced_run_s = statistics.median(r["run_s"] for r in traced)
    span_s = statistics.median(sum(r["self_s"].values()) for r in recordings)
    cells = counts["net.host.cells_delivered"]
    forwarded = counts["switch.cells_forwarded"]
    switch_s = self_s(TICK) + self_s(INGRESS)
    metrics: Dict[str, Optional[float]] = {
        "sim.events": counts["sim.events"],
        "sim.events_per_s": counts["sim.events"] / reference["run_s"],
        "sim.sim_us_per_s": counts["sim.now_us"] / reference["run_s"],
        "sim.events_per_cell": ratio(counts["sim.events"], cells),
        "sim.dispatch_self_s": traced_run_s - span_s,
        "sim.trace_overhead": traced_run_s / reference["run_s"],
        "sim.unclassified_share": ratio(self_s(OTHER), span_s),
        "net.link.events": events(LINK),
        "net.link.self_s": self_s(LINK),
        "net.link.cells_carried": counts["net.link.cells_carried"],
        "net.link.us_per_cell": ratio(
            self_s(LINK) * 1e6, counts["net.link.cells_carried"]
        ),
        "net.link.data_cells_dropped": counts["net.link.data_cells_dropped"],
        "switch.tick_events": events(TICK),
        "switch.tick_self_s": self_s(TICK),
        "switch.ingress_self_s": self_s(INGRESS),
        "switch.cells_forwarded": forwarded,
        "switch.guaranteed_forwarded": counts["switch.guaranteed_forwarded"],
        "switch.us_per_cell_forwarded": ratio(switch_s * 1e6, forwarded),
        "switch.cells_per_tick": ratio(forwarded, events(TICK)),
        "switch.cells_dropped": counts["switch.cells_dropped"],
        "core.matching.schedule_calls": calls(
            "repro.switch.crossbar.Crossbar.schedule"
        ),
        "core.matching.self_s": self_s(MATCHING),
        "core.flowcontrol.credits_sent": counts["core.flowcontrol.credits_sent"],
        "core.flowcontrol.resync_events": events(FLOWCONTROL),
        "core.flowcontrol.self_s": self_s(FLOWCONTROL),
        "net.host.events": events(HOST),
        "net.host.self_s": self_s(HOST),
        "net.host.packets_sent": counts["net.host.packets_sent"],
        "net.host.packets_delivered": counts["net.host.packets_delivered"],
        "net.host.cells_delivered": cells,
        "net.host.us_per_packet": ratio(
            self_s(HOST) * 1e6, counts["net.host.packets_delivered"]
        ),
        "net.host.reassembly_errors": counts["net.host.reassembly_errors"],
        "net.host.delivered_ratio": ratio(
            reference["attempted"] - reference["failed"], reference["attempted"]
        ),
        "core.reconfig.events": events(RECONFIG),
        "core.reconfig.self_s": self_s(RECONFIG),
        "core.reconfig.monitor_events": events(MONITOR),
        "core.reconfig.monitor_self_s": self_s(MONITOR),
        "core.reconfig.epochs": counts["core.reconfig.epochs"],
        "core.reconfig.us_per_switch_epoch": ratio(
            self_s(RECONFIG) * 1e6, counts["core.reconfig.switch_epochs"]
        ),
        "core.routing.events": events(ROUTING),
        "core.routing.self_s": self_s(ROUTING),
        "core.routing.circuits_opened": counts["core.routing.circuits_opened"],
        "core.routing.route_installs_full": counts[
            "core.routing.route_installs_full"
        ],
        "core.routing.route_installs_incremental": counts[
            "core.routing.route_installs_incremental"
        ],
        "core.routing.cache_hit_ratio": counts["core.routing.cache_hit_ratio"],
        "core.routing.reroutes": counts["core.routing.reroutes"],
        "traffic.events": events(TRAFFIC),
        "traffic.self_s": self_s(TRAFFIC),
    }
    # A span or callback name that no longer resolves takes the metrics
    # measured through it with it.
    for dotted in missing:
        for name in NEEDS.get(dotted, ()):
            metrics[name] = None
    return metrics


#: Boundary / callback path -> the per-layer metrics that read ``None``
#: once it no longer resolves.
NEEDS = {
    "repro.switch.crossbar.Crossbar.schedule": (
        "core.matching.schedule_calls", "core.matching.self_s",
    ),
    "repro.switch.switch.AN2Switch._slot_tick": (
        "switch.tick_events", "switch.tick_self_s", "switch.cells_per_tick",
        "switch.us_per_cell_forwarded",
    ),
    "repro.switch.switch.AN2Switch.on_cell": (
        "switch.ingress_self_s", "switch.us_per_cell_forwarded",
    ),
    "repro.net.port.Port.send": ("net.link.self_s", "net.link.us_per_cell"),
    "repro.net.host.Host.on_cell": ("net.host.self_s", "net.host.us_per_packet"),
    "repro.net.host.Host.send_packet": (
        "net.host.self_s", "net.host.us_per_packet", "traffic.self_s",
    ),
    "repro.switch.switch.AN2Switch._accept_credit": ("core.flowcontrol.self_s",),
    "repro.switch.switch.AN2Switch._send_credit": ("core.flowcontrol.self_s",),
    "repro.net.host.Host._accept_credit": ("core.flowcontrol.self_s",),
    "repro.switch.switch.AN2Switch._resync_tick": (
        "core.flowcontrol.resync_events",
    ),
    "repro.core.reconfig.monitor.PortMonitor.on_ack": (
        "core.reconfig.monitor_self_s",
    ),
    "repro.switch.switch.AN2Switch._on_topology_ready": (
        "core.routing.self_s", "core.reconfig.self_s",
        "core.reconfig.us_per_switch_epoch",
    ),
    "repro.switch.switch.AN2Switch._handle_reconfig": (
        "core.reconfig.events", "core.reconfig.self_s",
        "core.reconfig.us_per_switch_epoch",
    ),
}


def run_workload(args) -> int:
    """Driver mode: one workload, this process; returns the exit code."""
    process_started = perf_counter()
    import_times = time_imports()
    calib_s = calibrate()
    from spans import SpanRecorder
    from workloads import WORKLOADS

    scenario_cls = WORKLOADS[args.workload]
    deadline = perf_counter() + args.seconds
    rounds: List[dict] = []
    recordings: List[dict] = []
    recorder = None
    problems: List[str] = []

    def more(done: int, least: int) -> bool:
        if args.rounds is not None:
            return done < args.rounds
        return done < least or perf_counter() < deadline

    if args.trace:
        # Round 0 stays untraced: the reference for trace overhead, and
        # the proof that tracing changes nothing that is simulated.
        rounds.append(run_round(scenario_cls, args.seed, args.scale))
        recorder = SpanRecorder()
        recorder.install()
        try:
            while more(len(recordings), 1):
                rounds.append(
                    run_round(scenario_cls, args.seed, args.scale, recorder)
                )
                recordings.append(
                    {
                        "self_s": dict(recorder.self_s),
                        "root_events": dict(recorder.root_events),
                        "boundary_calls": dict(recorder.boundary_calls),
                    }
                )
        finally:
            recorder.uninstall()
        OUT.mkdir(exist_ok=True)
        recorder.write_jsonl(str(OUT / f"{args.workload}.trace.jsonl"))
    else:
        while more(len(rounds), MIN_ROUNDS):
            rounds.append(run_round(scenario_cls, args.seed, args.scale))

    first = rounds[0]
    for index, other in enumerate(rounds[1:], start=1):
        if deterministic_part(other) != deterministic_part(first):
            problems.append(
                f"round {index} differs from round 0 on the same seed"
            )
    if len(recordings) > 1 and any(
        r["root_events"] != recordings[0]["root_events"] for r in recordings
    ):
        problems.append("traced rounds dispatched different events")
    problems.extend(first["failures"])

    import_s = statistics.median(import_times)
    missing = sorted(set(recorder.missing)) if recorder else []
    if args.trace:
        values = per_layer_metrics(first, rounds[1:], recordings, missing)
        spec = PER_LAYER
    else:
        values = end_to_end_metrics(rounds, import_s)
        spec = END_TO_END
    correct = not problems and first["failed"] == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"  rounds {len(rounds)}  calib_s {calib_s:.4f}  "
        f"import_s {import_s:.4f}  "
        f"wall_s {perf_counter() - process_started:.2f}"
    )
    print(
        f"  ops_attempted {first['attempted']}  ops_failed {first['failed']}"
        f"  latency_samples {first['latency_samples']}"
    )
    for name, meta in spec.items():
        value = values[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {meta['unit']}")
    if missing:
        print("  missing_boundaries " + " ".join(missing))
    for problem in problems:
        print(f"  FAILED: {problem}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "calib_s": calib_s,
        "import_s": import_times,
        "round_setup_s": [r["setup_s"] for r in rounds],
        "round_run_s": [r["run_s"] for r in rounds],
        "ops_attempted": first["attempted"],
        "ops_failed": first["failed"],
        "latency_samples": first["latency_samples"],
        "missing_boundaries": missing,
        "problems": problems,
        "values": values,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    # The driver's contract wants a number for every metric: a per-layer
    # metric whose boundary is gone reads 0 here (and null above).
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": first["attempted"],
                "failed": first["failed"],
                "metrics": {
                    name: {
                        "value": 0.0 if values[name] is None else values[name],
                        "unit": meta["unit"],
                    }
                    for name, meta in spec.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the suite: interleaved subprocess repeats, then the traced passes
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: int, extra: List[str]) -> dict:
    """Run one workload in a fresh subprocess; its ``detail`` record."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ] + extra
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=900, check=False
    )
    details = [
        line for line in done.stdout.splitlines() if line.startswith("detail ")
    ]
    if not details:
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode})\n"
            f"{done.stdout}\n{done.stderr}"
        )
    detail = json.loads(details[-1][len("detail "):])
    detail["exit_code"] = done.returncode
    return detail


def summarize(name: str, values: List[float], enforce_bounds: bool) -> dict:
    median = statistics.median(values)
    summary = {
        "median": median,
        "min": min(values),
        "max": max(values),
        "unit": END_TO_END[name]["unit"],
    }
    if enforce_bounds:
        spread = (max(values) - min(values)) / median if median else 0.0
        summary["unstable"] = spread > END_TO_END[name]["bound"]
    return summary


def run_suite(args) -> int:
    extra = ["--seconds", str(args.seconds)]
    repeats = args.repeats
    if args.smoke:
        # One tenth of the simulated duration, one round, no bounds.
        repeats = 1
        extra = ["--scale", "0.1", "--rounds", "1"]
    runs: Dict[str, List[dict]] = {name: [] for name in WORKLOAD_NAMES}
    traced: Dict[str, dict] = {}
    for repeat in range(repeats):
        for name in WORKLOAD_NAMES:
            print(f"[{repeat + 1}/{repeats}] {name}", flush=True)
            runs[name].append(run_child(name, args.seed, 0, extra))
    for name in WORKLOAD_NAMES:
        print(f"[traced] {name}", flush=True)
        traced[name] = run_child(name, args.seed, 1, extra)

    ok = True
    report: Dict[str, Any] = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "seed": args.seed,
        "repeats": repeats,
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        details = runs[name]
        failed = [d for d in details + [traced[name]] if d["exit_code"]]
        ok = ok and not failed
        problems = [p for d in failed for p in d["problems"]]
        exact = {
            metric: details[0]["values"][metric]
            for metric, meta in END_TO_END.items()
            if meta["unit"] in SIMULATED_UNITS
        }
        for detail in details[1:]:
            for metric, value in exact.items():
                if detail["values"][metric] != value:
                    ok = False
                    problems.append(f"{metric} differs between repeats")
        report["workloads"][name] = {
            "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
            "ops_attempted": details[0]["ops_attempted"],
            "ops_failed": max(d["ops_failed"] for d in details),
            "latency_samples": details[0]["latency_samples"],
            "calib_s": [d["calib_s"] for d in details],
            "end_to_end": {
                metric: summarize(
                    metric, [d["values"][metric] for d in details], not args.smoke
                )
                for metric in END_TO_END
            },
            "per_layer": traced[name]["values"],
            "missing_boundaries": traced[name]["missing_boundaries"],
            "problems": problems,
        }

    for name, result in report["workloads"].items():
        print(f"\n== {name}: {result['why']}")
        print(
            f"   ops_attempted {result['ops_attempted']}  "
            f"ops_failed {result['ops_failed']}  "
            f"calib_s {statistics.median(result['calib_s']):.4f}"
        )
        for metric, summary in result["end_to_end"].items():
            flag = "  UNSTABLE" if summary.get("unstable") else ""
            print(
                f"   {metric:<28} {summary['median']:>14.6g} {summary['unit']:<6}"
                f" [{summary['min']:.6g} .. {summary['max']:.6g}]{flag}"
            )
        for metric, meta in PER_LAYER.items():
            value = result["per_layer"][metric]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"   {metric:<42} {shown:>14} {meta['unit']}")
        if result["missing_boundaries"]:
            print(
                "   missing_boundaries "
                + " ".join(result["missing_boundaries"])
            )
        for problem in result["problems"]:
            print(f"   FAILED: {problem}")
    output = Path(args.output) if args.output else OUT / "results.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {output}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# comparing two suite results
# ----------------------------------------------------------------------
def verdict(metric: str, base: dict, other: dict) -> str:
    """better / same / worse / unresolved for ``other`` against ``base``."""
    meta = END_TO_END[metric]
    sign = 1.0 if meta["better"] == "higher" else -1.0
    change = sign * (other["median"] - base["median"]) / base["median"]
    overlap = other["min"] <= base["max"] and base["min"] <= other["max"]
    spread = max(
        (s["max"] - s["min"]) / s["median"] if s["median"] else 0.0
        for s in (base, other)
    )
    if spread > meta["bound"] and overlap:
        return "unresolved"
    if change < -meta["bound"]:
        return "worse"
    if change > meta["bound"] and not overlap:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    base = json.loads(Path(path_a).read_text(encoding="utf-8"))
    other = json.loads(Path(path_b).read_text(encoding="utf-8"))
    print(f"base A = {path_a}\nother B = {path_b}\nratio = B / A\n")
    worse = False
    for metric, meta in END_TO_END.items():
        print(f"{metric} [{meta['unit']}, {meta['better']} is better, "
              f"bound {meta['bound']:.0%}]")
        for name in WORKLOAD_NAMES:
            a = base["workloads"][name]["end_to_end"][metric]
            b = other["workloads"][name]["end_to_end"][metric]
            outcome = verdict(metric, a, b)
            worse = worse or outcome == "worse"
            print(
                f"  {name:<20} A {a['median']:>12.6g}  B {b['median']:>12.6g}"
                f"  B/A {b['median'] / a['median']:.4f}  {outcome}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="host seconds one run measures for",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="exactly this many (traced) rounds instead of --seconds",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="factor on the simulated duration of the load",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--output", help="suite result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's program or nothing: never a copy of it
        # that happens to be installed.
        print(f"no program to measure: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
