"""The chaos CLI's trace carries cell journeys that the report renders.

``tools/run_scenario.py --trace-out`` records the ``journey`` category,
so CI's trace rendering walks real journeys: on ``pull_the_plug`` every
cell of the one best-effort circuit is traced from segmentation to
delivery, and ``trace_report``'s journey table counts each one delivered.
"""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import run_scenario  # noqa: E402
import trace_report  # noqa: E402


def test_pull_the_plug_trace_renders_every_cell_delivered(tmp_path, capsys):
    trace = tmp_path / "pull_the_plug.trace.jsonl"
    rc = run_scenario.main(
        ["pull_the_plug", "--no-timeline", "--trace-out", str(trace)]
    )
    assert rc == 0
    capsys.readouterr()

    records = trace_report.load_records(str(trace))
    journeys = [r for r in records if r["cat"] == "journey"]
    assert journeys
    assert {"segment", "deliver", "packet.done"} <= {r["name"] for r in journeys}

    lines = trace_report.build_journey(records).splitlines()
    header = lines.index(next(line for line in lines if line.startswith("vc ")))
    rows = []
    for line in lines[header + 2:]:
        if not line.strip():
            break
        rows.append(line.split())
    assert rows, "no per-VC row in the journey table"
    for vc, cells, delivered, dropped, *_ in rows:
        assert int(cells) > 0
        assert delivered == cells, f"vc {vc}: {delivered} of {cells} delivered"
        assert dropped == "0"
