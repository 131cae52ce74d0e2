#!/usr/bin/env python
"""Offline fallback for `make lint` — a tiny mirror of the ruff rules.

Hermetic environments (no network, no ruff wheel) still need the lint
gate to run, so this checker implements exactly the rule set selected
in ``ruff.toml`` and nothing more:

* F401  unused import (skipped in ``__init__.py``, honours ``__all__``):
        used means loaded somewhere in the code, as a name, the root of
        an attribute, or a name inside a string annotation; a mention
        in a docstring, comment or other string is not a use
* E711  comparison to ``None`` with ``==`` / ``!=``
* E712  comparison to ``True`` / ``False`` with ``==`` / ``!=``
* E722  bare ``except:``
* E731  lambda assigned to a name at statement level

``# noqa`` comments (bare, or listing the code) suppress a finding on
their line, as ruff would.  Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Iterator, List, Tuple

EXCLUDED_DIRS = {".git", "__pycache__", "figures", "experiment-results", ".exp-smoke-a", ".exp-smoke-b"}

Finding = Tuple[str, int, str, str]  # path, line, code, message


def python_files(root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in EXCLUDED_DIRS]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _noqa_codes(line: str) -> "set[str] | None":
    """The codes a ``# noqa`` comment suppresses (empty set = all)."""
    match = re.search(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", line)
    if match is None:
        return None
    if match.group(1) is None:
        return set()
    return {code.strip() for code in match.group(1).split(",") if code.strip()}


def _suppressed(lines: List[str], lineno: int, code: str) -> bool:
    if not 1 <= lineno <= len(lines):
        return False
    codes = _noqa_codes(lines[lineno - 1])
    if codes is None:
        return False
    return not codes or code in codes


def _dotted_root(name: str) -> str:
    return name.split(".", 1)[0]


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression in *tree*: arguments, returns and
    annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _name_loads(tree: ast.AST) -> "set[str]":
    """The identifiers *tree* loads as ``Name`` nodes (an attribute
    chain's root is one)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _loaded_names(tree: ast.AST) -> "set[str]":
    """The names *tree* loads, counting those inside string annotations
    (``Optional["Foo"]``, ``-> "Foo"``) as ruff does."""
    loaded = _name_loads(tree)
    pending = list(_annotations(tree))
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value.strip(), mode="eval").body
                except SyntaxError:
                    continue
                loaded |= _name_loads(parsed)
                pending.append(parsed)  # it may hold a string annotation of its own
    return loaded


def check_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, "E999", f"syntax error: {exc.msg}")]
    lines = source.splitlines()
    findings: List[Finding] = []

    def flag(node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if not _suppressed(lines, lineno, code):
            findings.append((path, lineno, code, message))

    # -- F401: imports whose bound name the code never loads ---------------
    if os.path.basename(path) != "__init__.py":
        loaded = _loaded_names(tree)
        exported: "set[str]" = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                exported |= {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [(alias, _dotted_root(alias.asname or alias.name)) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [
                    (alias, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                ]
            for alias, bound in names:
                if bound in exported or bound.startswith("_"):
                    continue
                if bound not in loaded:
                    flag(node, "F401", f"{alias.name!r} imported but unused")

    for node in ast.walk(tree):
        # -- E711 / E712 ----------------------------------------------------
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (node.left, comparator):
                    if isinstance(side, ast.Constant):
                        if side.value is None:
                            flag(node, "E711", "comparison to None (use 'is'/'is not')")
                        elif side.value is True or side.value is False:
                            flag(node, "E712", "comparison to True/False (use 'is' or bare truth)")
        # -- E722 -----------------------------------------------------------
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            flag(node, "E722", "bare 'except:'")
        # -- E731 -----------------------------------------------------------
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            if any(isinstance(t, ast.Name) for t in node.targets):
                flag(node, "E731", "lambda assigned to a name (use 'def')")
        elif isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Lambda):
            if isinstance(node.target, ast.Name):
                flag(node, "E731", "lambda assigned to a name (use 'def')")

    return findings


def main(argv: List[str]) -> int:
    root = argv[1] if len(argv) > 1 else "."
    findings: List[Finding] = []
    for path in python_files(root):
        findings.extend(check_file(path))
    for path, lineno, code, message in sorted(findings):
        print(f"{path}:{lineno}: {code} {message}")
    if findings:
        print(f"{len(findings)} lint finding(s)")
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
