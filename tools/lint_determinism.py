#!/usr/bin/env python
"""AST-based nondeterminism lint.

Flags source patterns that break the repo's determinism contract (see
DESIGN.md, "Determinism contract"):

- ``module-random`` -- draws from the module-level ``random`` stream
  (``random.random()``, ``random.choice(...)``, ``from random import
  choice``...).  All randomness must flow through seeded per-component
  streams (:mod:`repro.sim.random`); constructing ``random.Random(seed)``
  is allowed.
- ``set-iteration`` -- iterating a ``set``/``frozenset`` (literal,
  constructor, comprehension, or a name/attribute whose annotation or
  local assignment says set) in *protocol* modules.  Set iteration order
  depends on ``PYTHONHASHSEED`` whenever elements hash by identity or
  string, so protocol decisions derived from it are not replayable.
- ``dict-iteration`` -- iterating a dict (``.keys()``/``.values()``/
  ``.items()`` or a known-dict name) in protocol modules.  Dict iteration
  is insertion-ordered, but protocol dicts are routinely *built* by
  iterating sets, which launders hash order into "insertion order"; sort
  the keys or allowlist with a justification.
- ``id-ordering`` -- ``id(...)`` used inside a ``sorted``/``min``/``max``
  /``.sort`` call (directly or in its ``key``).  Memory addresses differ
  across runs; ordering by them is never replayable.
- ``clock-write`` -- an assignment to an attribute named ``now`` outside
  ``sim/kernel.py``.  ``Simulator.now`` is a plain attribute that only
  the kernel's run loops may advance; a clock set anywhere else
  would run events out of their time order.

Sorting the iterable (``for x in sorted(s)``) silences the iteration
rules.  Intentional cases carry either an inline pragma::

    for edge in edges:  # det: allow(membership only, order never observed)

or an entry in the ``ALLOWLIST`` table below (path suffix, rule, line
substring), which exists so justified cases are reviewed in one place.

Usage::

    python tools/lint_determinism.py [--show-allowed] [paths...]

Exits 0 when no unallowed finding exists, 1 otherwise.  Defaults to
linting ``src/repro``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: module path fragments treated as protocol code: the set-iteration rule
#: applies here (analysis/benchmark code may iterate freely).
PROTOCOL_PATHS: Tuple[str, ...] = (
    "core/matching/",
    "core/reconfig/",
    "core/routing/",
    "core/flowcontrol/",
    "switch/",
    "net/",
)

#: the subset where the dict-iteration rule also applies: protocol
#: *decision* code, where dict insertion order is routinely derived from
#: set iteration (requests_at_output built by walking request sets, cycle
#: graphs built from edge sets...).  Elsewhere dict iteration is plain
#: insertion order over deterministically-inserted keys and flagging it
#: is noise.
DECISION_PATHS: Tuple[str, ...] = (
    "core/matching/",
    "core/reconfig/",
    "core/routing/",
    "core/flowcontrol/",
)

#: calls whose result does not depend on argument iteration order; a
#: set/dict iterated directly inside them is not a finding.
ORDER_INSENSITIVE_CONSUMERS: frozenset = frozenset(
    {"sorted", "set", "frozenset", "sum", "len", "any", "all", "min", "max",
     "Counter", "dict"}
)

#: functions of the random module whose module-level use is a finding.
RANDOM_DRAWS: frozenset = frozenset(
    {
        "random", "uniform", "randint", "randrange", "choice", "choices",
        "sample", "shuffle", "seed", "getrandbits", "gauss", "expovariate",
        "betavariate", "normalvariate", "lognormvariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate", "binomialvariate",
    }
)

#: reviewed-in-one-place allowances: (path suffix, rule, line substring).
ALLOWLIST: Tuple[Tuple[str, str, str], ...] = (
    # Currently empty: every justified case carries an inline
    # ``# det: allow(reason)`` pragma next to the code it excuses.
    # Entries are (path suffix, rule, line substring).
)

PRAGMA = "det: allow"


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str
    allowed: bool
    reason: str = ""

    def __str__(self) -> str:
        mark = " [allowed]" if self.allowed else ""
        return f"{self.path}:{self.line}: {self.rule}: {self.message}{mark}"


def _is_protocol(path: Path) -> bool:
    text = str(path).replace("\\", "/")
    return any(fragment in text for fragment in PROTOCOL_PATHS)


def _is_decision(path: Path) -> bool:
    text = str(path).replace("\\", "/")
    return any(fragment in text for fragment in DECISION_PATHS)


def _pragma_reason(source_lines: List[str], lineno: int) -> Optional[str]:
    """The ``det: allow(...)`` reason covering ``lineno``, if any."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(source_lines):
            line = source_lines[candidate - 1]
            index = line.find(PRAGMA)
            if index != -1:
                rest = line[index + len(PRAGMA):]
                if rest.startswith("("):
                    end = rest.find(")")
                    if end != -1:
                        return rest[1:end]
                return "unspecified"
    return None


class _Analyzer(ast.NodeVisitor):
    """One file's walk.  Collects findings; tracks set/dict-typed names."""

    SET_ANNOTATIONS = {"Set", "FrozenSet", "set", "frozenset", "MutableSet",
                       "AbstractSet"}
    DICT_ANNOTATIONS = {"Dict", "dict", "Mapping", "MutableMapping",
                        "DefaultDict", "OrderedDict", "Counter"}

    def __init__(
        self, path: Path, source: str, protocol: bool, decision: bool
    ) -> None:
        self.path = path
        self.source_lines = source.splitlines()
        self.protocol = protocol
        self.decision = decision
        self.findings: List[Finding] = []
        #: comprehension nodes appearing directly inside an
        #: order-insensitive consumer call; exempt from iteration rules.
        self._sanctioned: Set[int] = set()
        #: names bound to set-valued / dict-valued expressions, per scope.
        self._set_names: List[Set[str]] = [set()]
        self._dict_names: List[Set[str]] = [set()]
        #: attributes (self.x) annotated/assigned as sets / dicts.
        self._set_attrs: Set[str] = set()
        self._dict_attrs: Set[str] = set()
        self._random_aliases: Set[str] = set()

    # -- plumbing ------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        reason = _pragma_reason(self.source_lines, node.lineno)
        line_text = (
            self.source_lines[node.lineno - 1]
            if node.lineno <= len(self.source_lines) else ""
        )
        if reason is None:
            for suffix, allowed_rule, fragment in ALLOWLIST:
                if (
                    str(self.path).replace("\\", "/").endswith(suffix)
                    and allowed_rule == rule
                    and fragment in line_text
                ):
                    reason = f"allowlist: {fragment}"
                    break
        self.findings.append(
            Finding(
                path=str(self.path),
                line=node.lineno,
                rule=rule,
                message=message,
                allowed=reason is not None,
                reason=reason or "",
            )
        )

    def _push_scope(self) -> None:
        self._set_names.append(set())
        self._dict_names.append(set())

    def _pop_scope(self) -> None:
        self._set_names.pop()
        self._dict_names.pop()

    def _name_is_set(self, name: str) -> bool:
        return any(name in scope for scope in self._set_names)

    def _name_is_dict(self, name: str) -> bool:
        return any(name in scope for scope in self._dict_names)

    # -- classification ------------------------------------------------
    @staticmethod
    def _annotation_head(annotation: ast.AST) -> Optional[str]:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation: take the head before '['.
            return node.value.split("[", 1)[0].strip().split(".")[-1]
        return None

    def _classify_value(self, value: ast.AST) -> Optional[str]:
        """'set', 'dict', or None for an assigned expression."""
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, ast.Call):
            fn = value.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name in ("set", "frozenset"):
                return "set"
            if name in ("dict", "defaultdict", "OrderedDict", "Counter"):
                return "dict"
        return None

    def _record_binding(self, target: ast.AST, kind: Optional[str]) -> None:
        if kind is None:
            return
        if isinstance(target, ast.Name):
            (self._set_names if kind == "set" else self._dict_names)[-1].add(
                target.id
            )
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            (self._set_attrs if kind == "set" else self._dict_attrs).add(
                target.attr
            )

    def _iter_kind(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """(rule, description) when ``for ... in node`` is order-sensitive."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set-iteration", "a set expression"
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return "set-iteration", f"{fn.id}(...)"
            if isinstance(fn, ast.Attribute) and fn.attr in (
                "keys", "values", "items"
            ):
                return "dict-iteration", f".{fn.attr}()"
            if isinstance(fn, ast.Attribute) and fn.attr in (
                "union", "intersection", "difference", "symmetric_difference"
            ):
                return "set-iteration", f".{fn.attr}()"
        if isinstance(node, ast.Name):
            if self._name_is_set(node.id):
                return "set-iteration", f"set-valued name {node.id!r}"
            if self._name_is_dict(node.id):
                return "dict-iteration", f"dict-valued name {node.id!r}"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            if node.attr in self._set_attrs:
                return "set-iteration", f"set-valued attribute self.{node.attr}"
            if node.attr in self._dict_attrs:
                return "dict-iteration", f"dict-valued attribute self.{node.attr}"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._iter_kind(node.left)
            right = self._iter_kind(node.right)
            if (left and left[0] == "set-iteration") or (
                right and right[0] == "set-iteration"
            ):
                return "set-iteration", "a set operation"
        return None

    # -- visitors ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_aliases.add(alias.asname or "random")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            drawn = [a.name for a in node.names if a.name in RANDOM_DRAWS]
            if drawn:
                self._emit(
                    node,
                    "module-random",
                    f"imports module-level draw(s) {', '.join(drawn)} "
                    f"from random; use repro.sim.random streams",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id in self._random_aliases
            and fn.attr in RANDOM_DRAWS
        ):
            self._emit(
                node,
                "module-random",
                f"draws from the shared module-level stream "
                f"({fn.value.id}.{fn.attr}); use a seeded per-component "
                f"Random from repro.sim.random",
            )
        if isinstance(fn, ast.Name) and fn.id in ("sorted", "min", "max"):
            self._check_id_ordering(node)
        if isinstance(fn, ast.Attribute) and fn.attr == "sort":
            self._check_id_ordering(node)
        if isinstance(fn, ast.Name) and fn.id in ORDER_INSENSITIVE_CONSUMERS:
            for arg in node.args:
                if isinstance(
                    arg,
                    (ast.GeneratorExp, ast.SetComp, ast.ListComp, ast.DictComp),
                ):
                    for generator in arg.generators:
                        self._sanctioned.add(id(generator.iter))
        self.generic_visit(node)

    def _check_id_ordering(self, call: ast.Call) -> None:
        # ``key=id`` passes the builtin itself, with no Call node to find.
        for keyword in call.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._emit(
                    call,
                    "id-ordering",
                    "orders by id(); memory addresses are not stable "
                    "across runs",
                )
                return
        for child in ast.walk(call):
            if child is call:
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "id"
            ):
                self._emit(
                    call,
                    "id-ordering",
                    "orders by id(); memory addresses are not stable "
                    "across runs",
                )
                return

    def _rule_applies(self, rule: str) -> bool:
        if rule == "set-iteration":
            return self.protocol
        return self.decision  # dict-iteration

    def visit_For(self, node: ast.For) -> None:
        kind = self._iter_kind(node.iter)
        if kind is not None:
            rule, description = kind
            if self._rule_applies(rule):
                self._emit(
                    node,
                    rule,
                    f"iterates {description}; wrap in sorted(...) or "
                    f"justify with '# det: allow(reason)'",
                )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if id(node.iter) not in self._sanctioned:
            kind = self._iter_kind(node.iter)
            if kind is not None:
                rule, description = kind
                if self._rule_applies(rule):
                    self._emit(
                        node.iter,
                        rule,
                        f"comprehension iterates {description}; wrap in "
                        f"sorted(...) or justify with "
                        f"'# det: allow(reason)'",
                    )
        self.generic_visit(node)

    def _check_clock_write(self, target: ast.AST) -> None:
        kernel = str(self.path).replace("\\", "/").endswith("sim/kernel.py")
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "now"
            and not kernel
        ):
            self._emit(
                target,
                "clock-write",
                "assigns .now; only the kernel's run loops advance "
                "the simulated clock",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._classify_value(node.value)
        for target in node.targets:
            self._record_binding(target, kind)
            self._check_clock_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        head = self._annotation_head(node.annotation)
        kind = None
        if head in self.SET_ANNOTATIONS:
            kind = "set"
        elif head in self.DICT_ANNOTATIONS:
            kind = "dict"
        if kind is None and node.value is not None:
            kind = self._classify_value(node.value)
        self._record_binding(node.target, kind)
        self._check_clock_write(node.target)
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        self._push_scope()
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            if arg.annotation is None:
                continue
            head = self._annotation_head(arg.annotation)
            if head in self.SET_ANNOTATIONS:
                self._set_names[-1].add(arg.arg)
            elif head in self.DICT_ANNOTATIONS:
                self._dict_names[-1].add(arg.arg)
        self.generic_visit(node)
        self._pop_scope()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


def lint_source(
    source: str,
    path: Path,
    protocol: Optional[bool] = None,
    decision: Optional[bool] = None,
) -> List[Finding]:
    """Lint one file's source text.

    ``protocol`` (set-iteration rule) and ``decision`` (dict-iteration
    rule) default to path-based classification.
    """
    if protocol is None:
        protocol = _is_protocol(path)
    if decision is None:
        decision = _is_decision(path)
    tree = ast.parse(source, filename=str(path))
    analyzer = _Analyzer(path, source, protocol, decision)
    analyzer.visit(tree)
    return analyzer.findings


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    findings: List[Finding] = []
    for root in paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            findings.extend(lint_source(file.read_text(), file))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--show-allowed", action="store_true",
        help="also print findings silenced by pragma/allowlist",
    )
    args = parser.parse_args(argv)
    findings = lint_paths(Path(p) for p in args.paths)
    blocking = [f for f in findings if not f.allowed]
    shown = findings if args.show_allowed else blocking
    for finding in shown:
        print(finding)
    allowed_count = sum(1 for f in findings if f.allowed)
    print(
        f"determinism lint: {len(blocking)} finding(s), "
        f"{allowed_count} allowed"
    )
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
