#!/usr/bin/env python
"""Render a JSONL trace as human-readable reports.

Input is a JSON Lines trace from :meth:`Tracer.write_jsonl` (see
``repro.obs.trace``) or a :class:`~repro.obs.flight.FlightRecorder` dump.  A trace
is attached to one network by assigning ``net.sim.tracer``;
``tools/run_scenario.py --trace-out`` does that for a chaos scenario::

    PYTHONPATH=src python tools/run_scenario.py pull_the_plug \\
        --no-timeline --trace-out /tmp/pull_the_plug.trace.jsonl
    PYTHONPATH=src python tools/trace_report.py \\
        /tmp/pull_the_plug.trace.jsonl --section all

Reports:

- **reconfiguration timeline**: every epoch observed in the ``reconfig``
  category, with its initiator, participant count, settle time (first
  ``epoch.begin`` to last ``epoch.end``), and whether it was superseded;
  port-monitor timeouts and skeptic verdict flips are listed inline.
- **cell journeys**: the ``journey`` category's per-hop records, folded
  into a per-VC critical-path table (queueing / matching / wire /
  reassembly / residual) plus a hop-by-hop timeline of the slowest cell.
- **flight recorder**: per-component timelines of any records, made for
  a :class:`~repro.obs.flight.FlightRecorder` dump (``--component`` filters to,
  say, the switch that failed an invariant).  A dump is an ordinary
  trace, so the other sections render it too.

The loader is deliberately tolerant: dumps written by a crashing run
may end mid-line, so malformed lines are skipped with a warning rather
than aborting the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.tables import Table  # noqa: E402


# ----------------------------------------------------------------------
# tolerant loading
# ----------------------------------------------------------------------
def load_records(path: str) -> Optional[List[Dict[str, Any]]]:
    """Read a JSONL trace, surviving truncation and partial writes.

    Dumps written by a crashing process (which is exactly when you need
    them) routinely end mid-line; a report tool that stack-traces on its
    own input is useless.  Malformed or non-object lines are skipped
    with a warning on stderr; a missing file returns ``None``.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    try:
        stream = open(path, "r", encoding="utf-8")
    except OSError as exc:
        print(f"trace_report: cannot read {path}: {exc}", file=sys.stderr)
        return None
    with stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                if skipped <= 3:
                    print(
                        f"trace_report: {path}:{lineno}: skipping "
                        f"malformed line (truncated dump?)",
                        file=sys.stderr,
                    )
                continue
            if not isinstance(record, dict) or "t" not in record:
                skipped += 1
                continue
            records.append(record)
    if skipped > 3:
        print(
            f"trace_report: {path}: skipped {skipped} malformed lines total",
            file=sys.stderr,
        )
    return records


# ----------------------------------------------------------------------
# reconfiguration timeline
# ----------------------------------------------------------------------
def build_timeline(records: List[Dict[str, Any]]) -> str:
    """Group ``reconfig`` records by epoch tag and render the timeline."""
    epochs: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    monitor_events: List[Dict[str, Any]] = []
    skeptic_events: List[Dict[str, Any]] = []

    for record in records:
        if record.get("cat") != "reconfig":
            continue
        name = record.get("name", "")
        data = record.get("data", {})
        if name.startswith("epoch."):
            tag = str(data.get("tag", "?"))
            epoch = epochs.get(tag)
            if epoch is None:
                epoch = epochs[tag] = {
                    "tag": tag,
                    "triggered_by": None,
                    "first_begin": None,
                    "last_end": None,
                    "participants": set(),
                    "completions": 0,
                    "watchdogs": 0,
                }
                order.append(tag)
            t = record["t"]
            if name == "epoch.trigger":
                epoch["triggered_by"] = record.get("comp")
            elif name == "epoch.begin":
                epoch["participants"].add(record.get("comp"))
                if epoch["first_begin"] is None or t < epoch["first_begin"]:
                    epoch["first_begin"] = t
            elif name == "epoch.end":
                epoch["completions"] += 1
                if epoch["last_end"] is None or t > epoch["last_end"]:
                    epoch["last_end"] = t
            elif name == "epoch.watchdog":
                epoch["watchdogs"] += 1
        elif name == "monitor.timeout":
            monitor_events.append(record)
        elif name.startswith("skeptic."):
            skeptic_events.append(record)

    lines: List[str] = ["Reconfiguration timeline", "========================"]
    if not epochs:
        lines.append("(no reconfiguration events in trace)")
    table = Table(
        ["epoch tag", "initiator", "begin (us)", "settle (us)",
         "participants", "completed", "status"],
    )
    for tag in order:
        epoch = epochs[tag]
        participants = len(epoch["participants"])
        begin = epoch["first_begin"]
        if epoch["last_end"] is not None and begin is not None:
            settle = epoch["last_end"] - begin
        else:
            settle = None
        if epoch["completions"] and epoch["completions"] >= participants:
            status = "settled"
        elif epoch["completions"]:
            status = "partial"
        else:
            status = "superseded"
        if epoch["watchdogs"]:
            status += f" ({epoch['watchdogs']} watchdog)"
        table.add_row(
            tag,
            epoch["triggered_by"] or "-",
            begin if begin is not None else "-",
            settle if settle is not None else "-",
            participants,
            epoch["completions"],
            status,
        )
    if epochs:
        lines.append(table.render())

    if skeptic_events:
        lines.append("")
        verdicts = Table(
            ["t (us)", "component", "port", "event", "detail"],
            title="Skeptic verdicts",
        )
        for record in skeptic_events:
            data = record.get("data", {})
            if record["name"] == "skeptic.verdict":
                detail = f"-> {data.get('verdict')} (level {data.get('level')})"
            elif record["name"] == "skeptic.probation":
                detail = f"probation until {data.get('until')}"
            else:
                detail = f"failure in {data.get('state')} (level {data.get('level')})"
            verdicts.add_row(
                record["t"], record.get("comp", "-"), data.get("port", "-"),
                record["name"].split(".", 1)[1], detail,
            )
        lines.append(verdicts.render())

    if monitor_events:
        lines.append("")
        shown = monitor_events[:20]
        timeouts = Table(
            ["t (us)", "component", "port", "seq", "misses"],
            title=f"Port-monitor timeouts ({len(monitor_events)} total"
            + (", first 20 shown)" if len(monitor_events) > 20 else ")"),
        )
        for record in shown:
            data = record.get("data", {})
            timeouts.add_row(
                record["t"], record.get("comp", "-"), data.get("port", "-"),
                data.get("seq", "-"),
                f"{data.get('misses', '-')}/{data.get('threshold', '-')}",
            )
        lines.append(timeouts.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# cell-journey critical path
# ----------------------------------------------------------------------
def _decompose_journey(
    recs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Split one cell's hop records into critical-path phases.

    - ``queueing``: segmentation until the source host's first ``tx``
      (host queue + pacing + credit stalls).
    - ``matching``: time spent inside switches, summed over every
      ``voq.enqueue`` -> ``grant`` span.
    - ``wire``: link transit, summed over every departure (``tx`` or
      ``grant``) -> ``wire.arrive`` span.
    - ``reassembly``: ``deliver`` -> ``packet.done`` (last cell only).
    - ``residual``: whatever the instrumented hops did not cover.
    """
    recs = sorted(
        recs, key=lambda r: (r["t"], r.get("data", {}).get("hop", 0))
    )
    segment_t = first_tx_t = deliver_t = done_t = None
    matching = wire = 0.0
    pending_enqueue = pending_departure = None
    dropped = None
    for record in recs:
        stage, t = record.get("name"), record["t"]
        if stage == "segment":
            segment_t = t if segment_t is None else segment_t
        elif stage == "tx":
            if first_tx_t is None:
                first_tx_t = t
            pending_departure = t
        elif stage == "voq.enqueue":
            pending_enqueue = t
        elif stage == "grant":
            if pending_enqueue is not None:
                matching += t - pending_enqueue
                pending_enqueue = None
            pending_departure = t
        elif stage == "wire.arrive":
            if pending_departure is not None:
                wire += t - pending_departure
                pending_departure = None
        elif stage == "deliver":
            deliver_t = t
        elif stage == "packet.done":
            done_t = t
        elif stage in ("wire.drop", "drop"):
            dropped = record.get("data", {}).get("reason", stage)
    queueing = (
        first_tx_t - segment_t
        if segment_t is not None and first_tx_t is not None
        else 0.0
    )
    reassembly = (
        done_t - deliver_t
        if done_t is not None and deliver_t is not None
        else 0.0
    )
    total = (
        deliver_t - segment_t
        if deliver_t is not None and segment_t is not None
        else None
    )
    residual = (
        max(0.0, total - queueing - matching - wire - reassembly)
        if total is not None
        else None
    )
    return {
        "records": recs,
        "vc": recs[0].get("data", {}).get("vc", "?"),
        "queueing": queueing,
        "matching": matching,
        "wire": wire,
        "reassembly": reassembly,
        "residual": residual,
        "total": total,
        "dropped": dropped,
    }


def build_journey(records: List[Dict[str, Any]], slowest: int = 1) -> str:
    """Per-VC critical-path decomposition of sampled cell journeys."""
    lines = ["Cell journeys (critical path)", "============================="]
    by_cell: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("cat") != "journey":
            continue
        cell = record.get("data", {}).get("cell")
        if cell is not None:
            by_cell.setdefault(cell, []).append(record)
    if not by_cell:
        lines.append("(no journey records in trace; enable the 'journey' "
                     "tracer category)")
        return "\n".join(lines)

    journeys = [_decompose_journey(recs) for recs in by_cell.values()]
    per_vc: Dict[Any, Dict[str, Any]] = {}
    for journey in journeys:
        row = per_vc.setdefault(
            journey["vc"],
            {"cells": 0, "delivered": 0, "dropped": 0, "queueing": 0.0,
             "matching": 0.0, "wire": 0.0, "reassembly": 0.0,
             "residual": 0.0, "total": 0.0},
        )
        row["cells"] += 1
        if journey["dropped"] is not None:
            row["dropped"] += 1
        if journey["total"] is None:
            continue
        row["delivered"] += 1
        for phase in ("queueing", "matching", "wire", "reassembly",
                      "residual", "total"):
            row[phase] += journey[phase]

    table = Table(
        ["vc", "cells", "delivered", "dropped", "mean total (us)",
         "queueing", "matching", "wire", "reassembly", "residual"],
        title="Mean end-to-end latency decomposition per VC",
    )
    for vc in sorted(per_vc, key=str):
        row = per_vc[vc]
        n = row["delivered"]
        if n:
            means = [f"{row[p] / n:.2f}" for p in
                     ("total", "queueing", "matching", "wire",
                      "reassembly", "residual")]
        else:
            means = ["-"] * 6
        table.add_row(vc, row["cells"], row["delivered"], row["dropped"],
                      *means)
    lines.append(table.render())

    delivered = [j for j in journeys if j["total"] is not None]
    delivered.sort(key=lambda j: -j["total"])
    for journey in delivered[:max(0, slowest)]:
        recs = journey["records"]
        cell = recs[0]["data"].get("cell")
        hops = Table(
            ["hop", "t (us)", "+dt", "component", "stage", "detail"],
            title=(
                f"Slowest cell {cell} (vc {journey['vc']}, "
                f"{journey['total']:.2f} us end to end)"
            ),
        )
        prev_t = None
        for record in recs:
            data = dict(record.get("data", {}))
            for drop in ("cell", "packet", "vc", "hop"):
                data.pop(drop, None)
            detail = ", ".join(f"{k}={v}" for k, v in sorted(data.items()))
            dt = "-" if prev_t is None else f"{record['t'] - prev_t:.2f}"
            prev_t = record["t"]
            hops.add_row(
                record.get("data", {}).get("hop", "-"),
                f"{record['t']:.2f}", dt,
                record.get("comp", "-"), record.get("name", "-"),
                detail or "-",
            )
        lines.append("")
        lines.append(hops.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# flight-recorder dumps
# ----------------------------------------------------------------------
def build_flight(
    records: List[Dict[str, Any]], component: Optional[str] = None
) -> str:
    """Render records as per-component timelines (a flight dump's rings)."""
    lines = ["Flight recorder", "==============="]
    meta = [r for r in records if r.get("cat") == "flight.meta"]
    rows = [r for r in records if r.get("cat") != "flight.meta"]
    for record in meta:
        data = record.get("data", {})
        lines.append(
            f"dump reason: {data.get('reason', '?')} "
            f"(retained {data.get('retained', '?')} of "
            f"{data.get('recorded_total', '?')} recorded, "
            f"{data.get('components', '?')} components, "
            f"ring capacity {data.get('capacity', '?')})"
        )
    if not rows:
        lines.append("(no flight records in file)")
        return "\n".join(lines)
    by_comp: Dict[str, List[Dict[str, Any]]] = {}
    for record in rows:
        by_comp.setdefault(record.get("comp", "?"), []).append(record)
    if component is not None:
        matched = {
            name: recs for name, recs in by_comp.items()
            if component in name
        }
        if not matched:
            lines.append(
                f"(no component matching {component!r}; present: "
                + ", ".join(sorted(by_comp)) + ")"
            )
            return "\n".join(lines)
        by_comp = matched
    for name in sorted(by_comp):
        recs = sorted(by_comp[name], key=lambda r: r["t"])
        table = Table(
            ["t (us)", "event", "detail"],
            title=f"{name} ({len(recs)} records)",
        )
        for record in recs:
            data = record.get("data", {})
            detail = ", ".join(f"{k}={v}" for k, v in sorted(data.items()))
            table.add_row(
                f"{record['t']:.2f}", record.get("name", "-"), detail or "-"
            )
        lines.append("")
        lines.append(table.render())
    return "\n".join(lines)


def build_trace_summary(records: List[Dict[str, Any]]) -> str:
    by_cat: Dict[str, int] = {}
    for record in records:
        cat = record.get("cat", "?")
        by_cat[cat] = by_cat.get(cat, 0) + 1
    t_lo = min((r["t"] for r in records), default=0)
    t_hi = max((r["t"] for r in records), default=0)
    parts = ", ".join(f"{c}={n}" for c, n in sorted(by_cat.items()))
    return (
        f"{len(records)} trace records over t=[{t_lo:.1f}, {t_hi:.1f}] "
        f"({parts})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render a JSONL trace as reports."
    )
    parser.add_argument("trace", help="JSONL trace file (Tracer.write_jsonl)")
    parser.add_argument(
        "--section",
        choices=["timeline", "journey", "flight", "all"],
        default="all",
    )
    parser.add_argument(
        "--component", default=None,
        help="flight section: only components whose name contains this "
        "substring (e.g. 'switch.s3')",
    )
    parser.add_argument(
        "--slowest", type=int, default=1,
        help="journey section: hop timelines for the K slowest cells",
    )
    args = parser.parse_args(argv)

    records = load_records(args.trace)
    if records is None:
        return 2
    if not records:
        print(f"{args.trace}: no trace records (empty or fully truncated)")
        return 0
    print(build_trace_summary(records))
    print()
    sections: List[str] = []
    if args.section in ("timeline", "all"):
        sections.append(build_timeline(records))
    if args.section in ("journey", "all"):
        has_journeys = any(r.get("cat") == "journey" for r in records)
        if has_journeys or args.section == "journey":
            sections.append(build_journey(records, slowest=args.slowest))
    if args.section in ("flight", "all"):
        # Under "all", only a flight dump (it carries a meta record) is
        # listed per component; a full trace would repeat itself.
        is_dump = any(r.get("cat") == "flight.meta" for r in records)
        if is_dump or args.section == "flight":
            sections.append(build_flight(records, component=args.component))
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
