#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about 90 s).

    python3 benchmarks/e2e/selftest.py

Checks that ``BENCHMARK.json`` is inside the driver's limits, that what
``run.py`` prints is named exactly as ``BENCHMARK.json`` names it, that two
``--smoke`` runs on one seed agree on every count and every simulated
time, and that another seed changes ``sim.events``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec: dict) -> None:
    check(
        set(spec)
        == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    check(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1..128 per-layer metrics")
    check(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds",
    )
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(bool(NAME.match(name)), f"name {name!r}")
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, "workload keys")
        check(
            len(workload["why"]) <= 200 and "\n" not in workload["why"],
            f"why of {workload['name']}",
        )
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, "e2e keys")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, "per-layer keys")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(bool(UNIT.match(metric["unit"])), f"unit of {metric['name']}")
        check(metric["better"] in ("lower", "higher"), "better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(
        len(setup) == 1
        and setup[0]["unit"] == "s"
        and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s: unit s, lower, the largest bound",
    )


def contract_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        RUN
        + ["--workload", workload, "--seed", "5", "--trace", str(trace)]
        + ["--rounds", "1", "--scale", "0.1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    check(done.returncode == 0, f"{workload} --trace {trace} exit code")
    return json.loads(done.stdout.splitlines()[-1])


def smoke(seed: int, tag: str) -> dict:
    output = HERE / "out" / f"selftest-{tag}.json"
    done = subprocess.run(
        RUN + ["--smoke", "--seed", str(seed), "--output", str(output)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    check(done.returncode == 0, f"--smoke --seed {seed}:\n{done.stdout[-2000:]}")
    return json.loads(output.read_text(encoding="utf-8"))


def exact_part(report: dict, units: dict) -> dict:
    """Counts and simulated times of a suite report: what must repeat.
    ``units`` maps a per-layer metric to its unit."""
    part = {}
    for name, result in report["workloads"].items():
        part[name] = {
            "ops": (result["ops_attempted"], result["ops_failed"]),
            "end_to_end": {
                metric: summary["median"]
                for metric, summary in result["end_to_end"].items()
                if summary["unit"] in ("us", "Mb/s")
            },
            "per_layer": {
                metric: value
                for metric, value in result["per_layer"].items()
                if units[metric] == "count"
            },
        }
    return part


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for trace, expected in ((0, end_to_end), (1, per_layer)):
        line = contract_line(workloads[-1], trace)
        check(
            set(line) == {"correct", "attempted", "failed", "metrics"},
            "last line keys",
        )
        check(line["correct"] is True and line["failed"] == 0, "correct run")
        check(list(line["metrics"]) == expected, f"--trace {trace} metric names")
        for name, metric in line["metrics"].items():
            check(
                set(metric) == {"value", "unit"}
                and isinstance(metric["value"], (int, float)),
                f"value of {name}",
            )
    print("names and contract line: ok")

    first = smoke(1, "a")
    again = smoke(1, "b")
    other = smoke(2, "c")
    for report in (first, again, other):
        check(sorted(report["workloads"]) == sorted(workloads), "workload names")
        for name, result in report["workloads"].items():
            check(sorted(result["end_to_end"]) == sorted(end_to_end), f"{name} e2e names")
            check(sorted(result["per_layer"]) == sorted(per_layer), f"{name} layer names")
            check(result["ops_failed"] == 0, f"{name} ops_failed")
    check(
        exact_part(first, units) == exact_part(again, units),
        "same seed, same counts",
    )
    print("two smoke runs on one seed agree exactly: ok")
    for name in workloads:
        check(
            first["workloads"][name]["per_layer"]["sim.events"]
            != other["workloads"][name]["per_layer"]["sim.events"],
            f"{name}: another seed must change sim.events",
        )
    print("another seed changes sim.events: ok")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
