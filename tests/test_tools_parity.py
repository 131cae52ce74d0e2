"""Tests for ``tools/parity.py``, the one determinism/parity runner.

The runner is handed fake tables of ``python -c`` rows through
``main(argv, table=...)``, so nothing here runs ``repro``; the real
table is only inspected.
"""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_parity():
    spec = importlib.util.spec_from_file_location(
        "parity", os.path.join(ROOT, "tools", "parity.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_parity()
Row = parity.Row

STABLE = Row("stable", "g1", ("-c", "print(sorted({'a', 'b', 'c'}))"))
HASH_ORDERED = Row("hash-ordered", "g2", ("-c", "print(list({'a', 'b', 'c', 'd', 'e', 'f'}))"))
EXIT_ONE = (
    "-c", "import sys; print('criteria'); print('VIOLATED by design', file=sys.stderr); sys.exit(1)"
)


class TestRunner:
    def test_hash_seed_dependent_row_is_drift(self, capsys):
        assert parity.main([], table=(STABLE, HASH_ORDERED)) == 1
        out = capsys.readouterr().out
        assert "stable: OK (1 artifacts byte-identical)" in out
        assert "hash-ordered: DRIFT (summary.txt)" in out

    def test_group_names_select_rows(self, capsys):
        assert parity.main(["g1"], table=(STABLE, HASH_ORDERED)) == 0
        out = capsys.readouterr().out
        assert "hash-ordered" not in out
        assert "determinism: OK (1 rows byte-identical, PYTHONHASHSEED=1 vs 2)" in out

    def test_unexpected_exit_fails_and_shows_stderr(self, capsys):
        assert parity.main([], table=(STABLE, Row("criteria", "g2", EXIT_ONE))) == 1
        captured = capsys.readouterr()
        assert "FAILED criteria: exit 1, not 0" in captured.err
        assert "VIOLATED by design" in captured.err
        # Both sides printed the same thing: the exit status is what failed it.
        assert "criteria: OK" in captured.out

    def test_expected_nonzero_exit_passes(self, capsys):
        assert parity.main([], table=(STABLE, Row("criteria", "g2", EXIT_ONE, expect=1))) == 0
        assert "FAILED" not in capsys.readouterr().err

    def test_other_side_arguments_run_on_side_b(self, capsys):
        row = Row("variants", "g1", ("-c", "print('a')"), other=("-c", "print('b')"))
        assert parity.main([], table=(row,)) == 1
        assert "variants: DRIFT (summary.txt)" in capsys.readouterr().out

    def test_artifact_missing_from_one_side_is_drift(self, capsys):
        write = "open('snapshot.jsonl', 'w').write('x')"
        row = Row("one-sided", "g1", ("-c", write), other=("-c", "pass"))
        assert parity.main([], table=(row,)) == 1
        assert "one-sided: DRIFT (snapshot.jsonl)" in capsys.readouterr().out

    def test_wall_clock_lines_are_not_pinned(self, capsys):
        write = ("import os; print('sim.events_per_wallsec', os.getpid()); "
                 "open('metrics.jsonl', 'w').write(f'sim.events_per_wallsec {os.getpid()}\\nx\\n')")
        assert parity.main([], table=(Row("wall", "g1", ("-c", write)),)) == 0
        assert "wall: OK (2 artifacts byte-identical)" in capsys.readouterr().out

    def test_row_without_any_artifact_fails(self, capsys):
        assert parity.main([], table=(Row("silent", "g1", ("-c", "pass")),)) == 1
        assert "silent: DRIFT (no artifact produced)" in capsys.readouterr().out

    def test_clean_run_leaves_cwd_and_repo_root_untouched(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(ROOT))
        write = "open('snapshot.jsonl', 'w').write('x'); print('wrote snapshot.jsonl')"
        assert parity.main([], table=(Row("writer", "g1", ("-c", write)),)) == 0
        assert "writer: OK (2 artifacts byte-identical)" in capsys.readouterr().out
        assert os.listdir(tmp_path) == []
        assert sorted(os.listdir(ROOT)) == before

    def test_ref_mixed_with_groups_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parity.main(["g1", "HEAD"], table=(STABLE,))
        assert exc.value.code == 2


def _sides(root, files):
    """Side A's and side B's output trees: ``files`` maps ``row/artifact``
    to the two sides' texts."""
    outs = [root / "a", root / "b"]
    for name, texts in files.items():
        for out, text in zip(outs, texts):
            path = out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return [str(out) for out in outs]


def _histogram_line(count, quantiles):
    return json.dumps({"type": "histogram", "name": "lat", "labels": {}, "count": count,
                       "quantiles": quantiles}, sort_keys=True)


QUANTILES_MAY_MOVE = [("*/snapshot.jsonl", "histogram.quantiles")]


class TestExpect:
    """``--expect``: a declared drift passes, anything else is named."""

    def test_a_declared_difference_passes(self, tmp_path, capsys):
        a, b = _sides(tmp_path, {"outage-s1/snapshot.jsonl": (
            _histogram_line(3, {"0.5": 1.0}), _histogram_line(3, {"0.5": 1.5}))})
        assert parity.judge(a, b, "parity-check", QUANTILES_MAY_MOVE)
        assert "outage-s1: OK (1 artifacts, drift only as declared: histogram.quantiles)" in (
            capsys.readouterr().out
        )

    def test_an_undeclared_difference_fails_naming_artifact_and_field(self, tmp_path, capsys):
        a, b = _sides(tmp_path, {"outage-s1/snapshot.jsonl": (
            _histogram_line(3, {"0.5": 1.0}), _histogram_line(4, {"0.5": 1.5}))})
        assert not parity.judge(a, b, "parity-check", QUANTILES_MAY_MOVE)
        assert "outage-s1: DRIFT (snapshot.jsonl: line 1 (lat) count)" in capsys.readouterr().out

    def test_a_declared_field_that_did_not_move_is_reported(self, tmp_path, capsys):
        line = _histogram_line(3, {"0.5": 1.0})
        a, b = _sides(tmp_path, {"outage-s1/snapshot.jsonl": (line, line)})
        assert not parity.judge(a, b, "parity-check", QUANTILES_MAY_MOVE)
        out = capsys.readouterr().out
        assert "outage-s1: OK (1 artifacts byte-identical)" in out
        assert "DECLARED BUT UNCHANGED: histogram.quantiles in */snapshot.jsonl" in out

    def test_an_artifact_no_declaration_covers_stays_byte_compared(self, tmp_path, capsys):
        a, b = _sides(tmp_path, {"outage-s1/summary.txt": ("p50=1 \n", "p50=1\n")})
        assert not parity.judge(a, b, "parity-check", [("t2a-*/summary.txt", "* histogram.p50")])
        assert "outage-s1: DRIFT (summary.txt)" in capsys.readouterr().out

    def test_a_text_table_compares_token_by_token(self, tmp_path, capsys):
        # A wider p50 re-pads every row and the rule; the quartile line's
        # p50 is not the table's and must not move.
        before = ("n=3 p50=37.8s\nmetric  type       value\n------  ---------  -----------\n"
                  "lat     histogram  n=3 p50=0.1\nhits    counter    4          \n")
        after = ("n=3 p50=37.8s\nmetric  type       value\n------  ---------  ------------\n"
                 "lat     histogram  n=3 p50=0.12\nhits    counter    4           \n")
        declared = [("t2a-*/summary.txt", "* histogram.p50")]
        a, b = _sides(tmp_path, {"t2a-A1-official/summary.txt": (before, after)})
        assert parity.judge(a, b, "parity-check", declared)
        assert "t2a-A1-official: OK" in capsys.readouterr().out
        a, b = _sides(tmp_path / "quartile", {"t2a-A1-official/summary.txt": (
            before, after.replace("p50=37.8s", "p50=38.0s"))})
        assert not parity.judge(a, b, "parity-check", declared)
        assert "DRIFT (summary.txt: line 1 'p50=37.8s' vs 'p50=38.0s')" in (
            capsys.readouterr().out
        )

    def test_json_paths_take_a_wildcard_per_key_or_index(self, tmp_path, capsys):
        def results(quartiles, n):
            return json.dumps({"cells": [{"n": n, "t2a_quartiles": quartiles}]})

        declared = [("smoke/results.json", "cells.*.t2a_quartiles")]
        a, b = _sides(tmp_path, {"smoke/results.json": (results([1, 2, 3], 9),
                                                        results([1, 2.5, 3], 9))})
        assert parity.judge(a, b, "parity-check", declared)
        a, b = _sides(tmp_path / "n", {"smoke/results.json": (results([1, 2, 3], 9),
                                                              results([1, 2.5, 3], 9.0))})
        assert not parity.judge(a, b, "parity-check", declared)
        assert "smoke: DRIFT (results.json: cells.0.n)" in capsys.readouterr().out

    def test_expect_needs_a_ref(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parity.main(["--expect", os.path.join(ROOT, "DRIFT.json")], table=(STABLE,))
        assert exc.value.code == 2

    def test_the_committed_declaration_reads(self):
        expected = parity.read_expectations(os.path.join(ROOT, "DRIFT.json"))
        assert expected and all(glob and field for glob, field in expected)


class TestTable:
    #: What `make parity-check` has enumerated since it was added; coverage
    #: against a REF must not shrink.
    CHAOS_ROWS = {
        *(f"{scenario}-s{shards}"
          for scenario in ("outage", "partition", "flappy", "brownout") for shards in "14"),
        "replay-s1", "replay-s4", "adaptive-s1", "adaptive-s4", "hint-s1", "hint-s4",
        "push-s1", "push-s4", "mix-hint", "mix-push",
    }

    def test_names_unique(self):
        names = [row.name for row in parity.TABLE]
        assert len(names) == len(set(names))

    TESTBED_ROWS = {
        *(f"t2a-A{index}-official" for index in range(1, 8)),
        "t2a-A1-E2", "t2a-A4-E2", "day-in-the-life", "loops-explicit", "loops-implicit",
    }

    def test_the_18_chaos_rows_still_run_against_a_ref(self):
        against_ref = {row.name: row for row in parity.TABLE if row.other is None}
        assert set(against_ref) == self.CHAOS_ROWS | self.TESTBED_ROWS | {"shapes", "ladders"}
        for name in self.CHAOS_ROWS:
            assert against_ref[name].args[:5] == ("-m", "repro", "chaos", "--seed", "7")
        assert [row.name for row in against_ref.values() if row.expect] == ["mix-hint"]

    def test_shapes_row_pins_every_world_shape(self):
        (row,) = [row for row in parity.TABLE if row.name == "shapes"]
        assert row.group == "chaos-check" and "--in-process" in row.args
        path = row.args[3].replace("{checkout}", ROOT)
        with open(path, encoding="utf-8") as handle:
            sweeps = json.load(handle)["sweeps"]
        shapes = {(scenario, axes["shards"][0], axes["corpus_size"][0], mode)
                  for axes in (sweep["axes"] for sweep in sweeps)
                  for scenario in axes["scenario"]
                  for mode in axes["delivery_mode"]}
        assert shapes == {("outage", shards, pairs, mode)
                          for shards, pairs in ((1, 3), (2, 1), (4, 6))
                          for mode in ("poll", "push")} | {
            (scenario, 1, 1, mode)
            for scenario in ("outage", "partition", "flappy", "brownout")
            for mode in ("hint", "push")
        }

    def test_testbed_rows_are_one_group(self):
        assert {row.name for row in parity.TABLE if row.group == "testbed-check"} == (
            self.TESTBED_ROWS
        )

    def test_two_variant_rows(self):
        assert {row.name for row in parity.TABLE if row.other} == {"smoke"}

    def test_every_row_is_in_exactly_one_makefile_alias(self):
        with open(os.path.join(ROOT, "Makefile"), encoding="utf-8") as handle:
            makefile = handle.read()
        rules = re.findall(r"^([\w -]+):\n\t@python tools/parity\.py \$@$", makefile, re.M)
        assert len(rules) == 1
        aliases = rules[0].split()
        assert len(aliases) == len(set(aliases))
        # Every row's group is an alias (so each row is in exactly one),
        # and no alias selects nothing.
        assert {row.group for row in parity.TABLE} == set(aliases)

    def test_docs_table_is_the_runners_table(self):
        path = os.path.join(ROOT, "docs", "ROBUSTNESS.md")
        with open(path, encoding="utf-8") as handle:
            documented = re.findall(r"^\| `([\w-]+)` \| `([\w-]+)` \| `([^`]+)`", handle.read(), re.M)
        assert [(name, group) for name, group, _ in documented] == [
            (row.name, row.group) for row in parity.TABLE
        ]
        flags = {name: pinned for name, _, pinned in documented}
        for row in parity.TABLE:
            if row.args[:3] == ("-m", "repro", "chaos"):
                assert flags[row.name] == " ".join(row.args[7:])
