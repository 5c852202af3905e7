"""Nondeterminism-lint self-tests on fixture snippets."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import lint_determinism  # noqa: E402
from lint_determinism import lint_source  # noqa: E402

PROTOCOL = Path("src/repro/core/routing/example.py")
NEUTRAL = Path("src/repro/analysis/example.py")


def lint(snippet, path=PROTOCOL, **kwargs):
    return lint_source(textwrap.dedent(snippet), path, **kwargs)


def rules(findings, include_allowed=False):
    return [
        f.rule for f in findings if include_allowed or not f.allowed
    ]


# ----------------------------------------------------------------------
# module-random
# ----------------------------------------------------------------------
class TestModuleRandom:
    def test_module_level_draw_flagged(self):
        findings = lint(
            """
            import random
            x = random.choice([1, 2, 3])
            """,
            path=NEUTRAL,
        )
        assert rules(findings) == ["module-random"]

    def test_from_import_draw_flagged(self):
        findings = lint("from random import shuffle\n", path=NEUTRAL)
        assert rules(findings) == ["module-random"]

    def test_seeded_instance_allowed(self):
        findings = lint(
            """
            import random
            rng = random.Random(42)
            y = rng.random()
            """,
            path=NEUTRAL,
        )
        assert rules(findings) == []

    def test_fires_outside_protocol_paths(self):
        # Unlike the iteration rules, module-random applies everywhere.
        findings = lint(
            "import random\nz = random.random()\n",
            path=Path("src/repro/analysis/report.py"),
        )
        assert rules(findings) == ["module-random"]


# ----------------------------------------------------------------------
# set-iteration
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_set_literal_flagged_in_protocol_code(self):
        findings = lint(
            """
            def f():
                for x in {1, 2, 3}:
                    print(x)
            """
        )
        assert rules(findings) == ["set-iteration"]

    def test_annotated_name_flagged(self):
        findings = lint(
            """
            from typing import Set
            def f(ports: Set[int]):
                for p in ports:
                    print(p)
            """
        )
        assert rules(findings) == ["set-iteration"]

    def test_sorted_silences(self):
        findings = lint(
            """
            def f(ports: set):
                for p in sorted(ports):
                    print(p)
            """
        )
        assert rules(findings) == []

    def test_not_flagged_outside_protocol_paths(self):
        findings = lint(
            """
            def f(ports: set):
                for p in ports:
                    print(p)
            """,
            path=NEUTRAL,
        )
        assert rules(findings) == []

    def test_order_insensitive_consumer_sanctioned(self):
        findings = lint(
            """
            def f(ports: set):
                return sum(p * 2 for p in ports)
            """
        )
        assert rules(findings) == []

    def test_pragma_marks_allowed(self):
        findings = lint(
            """
            def f(edges: set):
                for e in edges:  # det: allow(membership only)
                    if e:
                        return True
            """
        )
        assert rules(findings) == []
        assert rules(findings, include_allowed=True) == ["set-iteration"]
        (finding,) = lint(
            """
            def f(edges: set):
                for e in edges:  # det: allow(membership only)
                    if e:
                        return True
            """
        )
        assert finding.allowed
        assert "membership only" in finding.reason

    def test_preceding_line_pragma(self):
        findings = lint(
            """
            def f(edges: set):
                # det: allow(reported order never consumed)
                for e in edges:
                    print(e)
            """
        )
        assert rules(findings) == []


# ----------------------------------------------------------------------
# dict-iteration
# ----------------------------------------------------------------------
class TestDictIteration:
    def test_items_flagged_in_decision_code(self):
        findings = lint(
            """
            def f(table: dict):
                for k, v in table.items():
                    print(k, v)
            """
        )
        assert rules(findings) == ["dict-iteration"]

    def test_not_flagged_in_non_decision_protocol_code(self):
        # net/ is protocol (set rule) but not decision (dict rule) scope.
        findings = lint(
            """
            def f(table: dict):
                for k, v in table.items():
                    print(k, v)
            """,
            path=Path("src/repro/net/example.py"),
        )
        assert rules(findings) == []

    def test_sorted_items_silences(self):
        findings = lint(
            """
            def f(table: dict):
                for k, v in sorted(table.items()):
                    print(k, v)
            """
        )
        assert rules(findings) == []


# ----------------------------------------------------------------------
# id-ordering
# ----------------------------------------------------------------------
class TestIdOrdering:
    def test_sorted_key_id_flagged(self):
        findings = lint(
            "def f(xs):\n    return sorted(xs, key=id)\n", path=NEUTRAL
        )
        assert rules(findings) == ["id-ordering"]

    def test_sort_method_flagged(self):
        findings = lint(
            "def f(xs):\n    xs.sort(key=lambda o: id(o))\n", path=NEUTRAL
        )
        assert rules(findings) == ["id-ordering"]

    def test_plain_id_use_allowed(self):
        findings = lint("def f(x):\n    return id(x)\n", path=NEUTRAL)
        assert rules(findings) == []


# ----------------------------------------------------------------------
# the shipped tree must be clean
# ----------------------------------------------------------------------
class TestClockWrite:
    def test_assignment_to_now_flagged_outside_the_kernel(self):
        findings = lint(
            """
            def jump(sim):
                sim.now = 5.0
                sim.now += 1.0
            """,
            path=NEUTRAL,
        )
        assert rules(findings) == ["clock-write", "clock-write"]

    def test_the_kernel_may_advance_its_clock(self):
        findings = lint(
            """
            class Simulator:
                def step(self, time):
                    self.now = time
            """,
            path=Path("src/repro/sim/kernel.py"),
        )
        assert rules(findings) == []

    def test_reading_now_is_not_a_write(self):
        findings = lint("def f(sim):\n    now = sim.now\n", path=NEUTRAL)
        assert rules(findings) == []


class TestRepoClean:
    def test_src_repro_has_no_unallowed_findings(self):
        repo = Path(__file__).resolve().parents[2]
        findings = lint_determinism.lint_paths([repo / "src" / "repro"])
        blocking = [f for f in findings if not f.allowed]
        assert blocking == [], "\n".join(str(f) for f in blocking)

    def test_main_exit_codes(self, capsys):
        repo = Path(__file__).resolve().parents[2]
        assert (
            lint_determinism.main([str(repo / "src" / "repro")]) == 0
        )
        capsys.readouterr()
