"""Tests for ``tools/lint.py``, the offline stand-in for ``ruff`` in ``make lint``.

F401 counts an import as used only where the code loads it — a name, the
root of an attribute, or a name inside a string annotation — not where
a docstring, comment or other string mentions it.
"""

import importlib.util
import os
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint", os.path.join(ROOT, "tools", "lint.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unused(lint, tmp_path, source):
    """The names F401 flags in *source*."""
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return [message for _, _, code, message in lint.check_file(str(path)) if code == "F401"]


def test_a_docstring_mention_is_not_a_use(lint, tmp_path):
    flagged = unused(lint, tmp_path, '''
        """Writes ``results.json`` with json-like care."""
        import json
        from dataclasses import dataclass, field

        # field defaults are documented in json's own terms
        NOTE = "json"


        @dataclass
        class Row:
            """One row; see dataclasses.field."""
    ''')
    assert flagged == ["'json' imported but unused", "'field' imported but unused"]


def test_a_string_annotation_is_a_use(lint, tmp_path):
    assert unused(lint, tmp_path, '''
        from typing import TYPE_CHECKING, Dict, Optional

        if TYPE_CHECKING:
            from collections import OrderedDict
            from decimal import Decimal
            from fractions import Fraction


        def total(rows: "Dict[str, Decimal]") -> Optional["Fraction"]:
            held: "Optional['OrderedDict']" = None
            return held
    ''') == []


def test_loads_count_and_stores_do_not(lint, tmp_path):
    assert unused(lint, tmp_path, '''
        import os.path
        import sys
        from itertools import count

        count = 3
        print(os.path.sep)
    ''') == ["'sys' imported but unused", "'count' imported but unused"]
