#!/usr/bin/env python
"""Reachability gate: the functions in src/repro no claim run reaches.

Runs the claim-producing slice with a profile hook in every Python
process it starts, then walks ``src/repro`` with ``ast`` and lists each
function that none of the runs called.  The slice:

- the experiment benches (``pytest benchmarks/ --benchmark-disable``;
  pytest-benchmark's timer clears the profile hook while it times a
  call, so timing stays off),
- the end-to-end benchmark smoke (``benchmarks/e2e/run.py --smoke``),
- every script in ``examples/``,
- the four canned scenarios and ``--random 1..5`` with ``--trace-out``,
  then ``tools/trace_report.py --section all`` on each trace,
- the conformance gate (``tools/run_conformance.py``).

Exit 0 when every unreached function is listed in
``tools/reach_allowlist.txt``; exit 1 when one is not, or when the
allowlist names a function that is now reached or no longer exists;
exit 2 when a run of the slice fails or leaves no record of what it
reached.  ``__repr__`` / ``__str__`` and stubs marked
``# pragma: no cover - interface`` are exempt.  Needs Python 3.11 or
later (the hook names functions by ``co_qualname``).

    python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = REPO / "tools" / "reach_allowlist.txt"
REASONS = ("failure-only", "oracle", "fixture", "safety", "hatch")
EXEMPT_NAMES = ("__repr__", "__str__")
EXEMPT_MARK = "# pragma: no cover - interface"
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.faults import CANNED  # noqa: E402

# Imported first by every process the slice starts (it is put on
# PYTHONPATH as sitecustomize): record each code object that runs, and
# write the package's (file, qualname) pairs to one file at exit.
HOOK = '''
import atexit, os, sys, tempfile, threading
_seen = set()
def _hook(frame, event, arg, _add=_seen.add):
    _add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    sys.setprofile(None)
    root = os.environ["REACH_PACKAGE"]
    pairs = set()
    for code in _seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(root + os.sep):
            pairs.add(os.path.relpath(path, root) + "::" + code.co_qualname)
    fd, _ = tempfile.mkstemp(dir=os.environ["REACH_OUT"], suffix=".txt")
    with os.fdopen(fd, "w") as out:
        out.write("\\n".join(sorted(pairs)))
'''


def slice_commands(traces: Path) -> List[List[str]]:
    py = sys.executable
    commands = [
        [py, "-m", "pytest", "benchmarks/", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        [py, "benchmarks/e2e/run.py", "--smoke"],
    ]
    examples = sorted((REPO / "examples").glob("*.py"))
    commands += [[py, str(script)] for script in examples]
    scenarios = [[name] for name in sorted(CANNED)]
    scenarios += [["--random", str(seed)] for seed in range(1, 6)]
    for args in scenarios:
        trace = traces / (args[-1] + ".trace.jsonl")
        commands.append([py, "tools/run_scenario.py", *args, "--no-timeline",
                         "--trace-out", str(trace)])
        commands.append([py, "tools/trace_report.py", str(trace),
                         "--section", "all"])
    commands.append([py, "tools/run_conformance.py"])
    return commands


def record() -> Set[str]:
    """Run the slice under the hook; the reached ``file::qualname`` set."""
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        (base / "out").mkdir()
        (base / "traces").mkdir()
        (base / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([scratch, str(SRC)])
        env["REACH_OUT"] = str(base / "out")
        env["REACH_PACKAGE"] = os.path.realpath(PACKAGE)
        env["REPRO_FLIGHT_DIR"] = str(base / "flight")
        for command in slice_commands(base / "traces"):
            shown = " ".join(Path(c).name if c == sys.executable else c
                             for c in command)
            print(f"reach: {shown}", flush=True)
            dumps = len(list((base / "out").iterdir()))
            done = subprocess.run(command, cwd=REPO, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout[-4000:], done.stderr[-4000:], sep="\n")
                print(f"reach: run failed (exit {done.returncode})")
                raise SystemExit(2)
            # A hook that failed at exit only prints its error; without
            # this check the run would read as "nothing reached".
            if len(list((base / "out").iterdir())) == dumps:
                print(done.stderr[-4000:])
                print("reach: run left no record of what it reached")
                raise SystemExit(2)
        reached: Set[str] = set()
        for dump in (base / "out").iterdir():
            reached.update(filter(None, dump.read_text().splitlines()))
    return reached


def defined_functions() -> Dict[str, int]:
    """Every non-exempt function in the package: ``file::qualname`` ->
    line of its ``def``."""
    found: Dict[str, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        lines = path.read_text().splitlines()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, FUNCTION_NODES):
                    qualname = prefix + child.name
                    header = lines[child.lineno - 1:child.body[0].lineno - 1]
                    exempt = child.name in EXEMPT_NAMES or any(
                        EXEMPT_MARK in line for line in header
                    )
                    if not exempt:
                        found[f"{relative}::{qualname}"] = child.lineno
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse("\n".join(lines), str(path)), "")
    return found


def read_allowlist() -> Dict[str, str]:
    entries: Dict[str, str] = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or fields[1] not in REASONS:
            raise SystemExit(
                f"{ALLOWLIST.name}:{number}: want '<file>::<qualname>"
                f" <reason>' with a reason in {', '.join(REASONS)}: {line!r}"
            )
        entries[fields[0]] = fields[1]
    return entries


def main() -> int:
    if sys.version_info < (3, 11):
        print("reach: needs Python 3.11 or later (code.co_qualname)")
        return 2
    reached = record()
    functions = defined_functions()
    unreached = sorted(name for name in functions if name not in reached)
    allowed = read_allowlist()
    unlisted = [name for name in unreached if name not in allowed]
    stale = sorted(
        f"{name} ({'reached' if name in functions else 'no such function'})"
        for name in allowed
        if name not in functions or name in reached
    )
    print(
        f"reach: {len(functions)} functions in src/repro, "
        f"{len(unreached)} unreached, {len(allowed)} allowlisted"
    )
    for name in unlisted:
        print(f"unreached, not allowlisted: {name} (line {functions[name]})")
    for entry in stale:
        print(f"stale allowlist entry: {entry}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
