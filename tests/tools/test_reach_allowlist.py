"""The reachability allowlist names live functions, each once, each with
a known reason.

``tools/reach.py`` (the ``reach`` CI job) fails on a stale entry only
after its full claim-run slice; these checks read the allowlist against
the source tree alone, so deleting a function without its entry fails
in tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import reach  # noqa: E402


def allowlisted_names():
    return [
        line.split()[0]
        for line in reach.ALLOWLIST.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def test_every_entry_names_a_defined_function():
    functions = reach.defined_functions()
    missing = [name for name in reach.read_allowlist() if name not in functions]
    assert not missing, f"allowlisted but not defined: {missing}"


def test_every_reason_is_known():
    for name, reason in reach.read_allowlist().items():
        assert reason in reach.REASONS, f"{name}: unknown reason {reason!r}"


def test_no_entry_is_listed_twice():
    names = allowlisted_names()
    twice = sorted({name for name in names if names.count(name) > 1})
    assert not twice, f"listed more than once: {twice}"


def test_a_duplicated_line_is_refused(tmp_path, monkeypatch):
    allowlist = tmp_path / "reach_allowlist.txt"
    entry = "sim/kernel.py::Simulator.pending oracle"
    allowlist.write_text(f"{entry}\n{entry}\n")
    monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
    with pytest.raises(SystemExit, match="listed twice"):
        reach.read_allowlist()
