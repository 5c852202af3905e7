"""README.md's import lines run against this checkout.

A README snippet that imports a name from a module that no longer
defines it is the first thing a reader copies and the last thing a
refactor checks, so every ``import repro...`` / ``from repro... import``
line in its ``python`` blocks is executed here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_LINE = re.compile(r"^(import repro\b|from repro[.\w]* import )")


def readme_imports():
    """Each repro import line of README.md's ``python`` code blocks."""
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
        flags=re.MULTILINE | re.DOTALL,
    )
    return [
        line for block in blocks for line in block.splitlines()
        if IMPORT_LINE.match(line)
    ]


def test_readme_imports_resolve():
    lines = readme_imports()
    assert len(lines) >= 5, lines
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
