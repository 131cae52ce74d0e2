#!/usr/bin/env python3
"""Byte-parity of the working tree: against itself, or against a base commit.

    python tools/parity.py [GROUP...]    # determinism: the tree against itself
    python tools/parity.py REF           # or: make parity-check BASE=<git-ref>
    python tools/parity.py REF --expect DRIFT.json   # ... EXPECT=DRIFT.json

Both are one loop — run ``TABLE`` on side A and on side B, each row in
its own scratch directory, and ``cmp`` everything the rows left behind.
What is pinned is the table below and nothing else; a line naming a
wall-clock metric (``sim.events_per_wallsec``) is left out of the compare.

**Against itself** both sides are the working tree, side A under
``PYTHONHASHSEED=1`` and side B under ``PYTHONHASHSEED=2``: separate
processes with *different* hash seeds is the one thing these gates catch
that the in-process tier-1 determinism tests cannot.  A row with
``other`` arguments runs those on side B.  ``GROUP`` names select rows;
they are the Makefile aliases (``make chaos-check`` = ``parity.py
chaos-check``), and ``make determinism-check`` runs every row.

**Against a REF** side A is ``git archive REF`` (nothing is left
registered in ``.git``, no network is touched) run with *this* tree's
table, so a REF that predates a flag fails loudly.  The single-variant
rows run on both sides (the ``shapes`` row's ``EXPERIMENTS/chaos_shapes.json``
cells among them), plus ``EXPERIMENTS/matrix_smoke.json
--in-process`` → ``results.json`` and the five ledger workloads'
``sim_fingerprint`` and every ``count`` line of ``benchmarks/ledger/run.py
--seconds 1 --repeats 1 --trace 0`` at seeds 7 and 11 (14 s a side, so
REF-only).  A PR that *intends* a behaviour change fails this on
purpose, which is why ``make ci`` does not run it.

**An intended drift** is declared, not waved through: ``--expect FILE``
reads a committed declaration (``DRIFT.json`` is the current one) whose
``expect`` entries each name an ``artifacts`` glob over ``row/artifact``
paths and the ``fields`` in them that may differ.  What a field is
depends on the artifact:

* ``.jsonl`` (snapshots, ``metrics.jsonl``): ``<type>.<key>`` of each
  entry, e.g. ``histogram.quantiles``;
* ``.json`` (``results.json``, the ledger readings): a dotted path, ``*``
  standing for any one key or list index, e.g. ``cells.*.t2a_quartiles``;
* anything else, read as text: a ``name=value`` token, as the words
  before the line's first such token and ``.name``, e.g. ``*
  histogram.p50`` for a metrics-table row.  Such a text compares token
  by token, because a table pads every row (and its ``---`` rule) to
  its widest value.

An artifact no field covers stays byte-compared; one that a field covers
must equal BASE's once the declared fields are set aside, and every
declared field must differ somewhere: a declaration that names what did
not move is reported, as is any other difference, naming the artifact
and field.

Exit 0 when every row exited with its expected status and everything is
byte-identical or differs only as declared; 1 otherwise, naming the rows
and artifacts.  ``--keep`` leaves the scratch directory (path printed);
otherwise nothing outlives it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fnmatch import fnmatchcase
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT_SEEDS = ("7", "11")


class Row(NamedTuple):
    """One pinned configuration: ``python <args>`` run in its own scratch directory."""

    name: str
    group: str  #: the Makefile alias that runs this row against itself
    args: Tuple[str, ...]  #: side A, and both sides against a REF
    expect: int = 0  #: the exit status; any other fails the gate
    other: Optional[Tuple[str, ...]] = None  #: side B against itself (default: ``args``)


def chaos(name: str, group: str, *extra: str, expect: int = 0) -> Row:
    """A ``repro chaos --seed 7`` row.  The snapshot path is relative to the
    row's directory because the summary prints it and must not name the side."""
    head = ("-m", "repro", "chaos", "--seed", "7", "--snapshot", "snapshot.jsonl")
    return Row(name, group, head + extra, expect)


def t2a(applet: str, scenario: str) -> Row:
    """A ``repro t2a`` row on the §4 testbed: every official service and
    Our Service run in it, whichever applet is measured."""
    args = ("-m", "repro", "t2a", "--applet", applet, "--scenario", scenario,
            "--runs", "3", "--metrics", "metrics.jsonl")
    return Row(f"t2a-{applet}-{scenario}", "testbed-check", args)


SMOKE = ("-m", "repro", "experiments", "{checkout}/EXPERIMENTS/matrix_smoke.json",
         "--quiet", "--output", ".")
#: Every world shape a chaos cell picks (shards, pairs): (1, 3), (2, 1), (4, 6), and
#: (1, 1) under every scenario with hints and push.
SHAPES = ("-m", "repro", "experiments", "{checkout}/EXPERIMENTS/chaos_shapes.json",
          "--in-process", "--quiet", "--output", ".")
#: Metrics read from the host's wall clock (``repro.obs.WALLCLOCK_METRICS``):
#: a line naming one is not pinned.
WALLCLOCK = (b"sim.events_per_wallsec",)

TABLE: Tuple[Row, ...] = (
    *(
        chaos(f"{scenario}-s{shards}", "chaos-check", "--scenario", scenario, "--shards", shards)
        for scenario in ("outage", "partition", "flappy", "brownout")
        for shards in ("1", "4")
    ),
    Row("shapes", "chaos-check", SHAPES),
    chaos("replay-s1", "replay-check", "--scenario", "outage", "--replay"),
    chaos("replay-s4", "replay-check", "--scenario", "outage", "--replay", "--shards", "4"),
    # degrade-check is acceptance *and* determinism: exit 0 means every
    # adaptive-delivery criterion held (docs/ROBUSTNESS.md).
    chaos("adaptive-s1", "degrade-check", "--scenario", "brownout", "--adaptive"),
    chaos("adaptive-s4", "degrade-check", "--scenario", "brownout", "--adaptive", "--shards", "4"),
    # This mix drops the victim's request rate 2.33x, short of the 3x
    # criterion: "ADAPTIVE ACCEPTANCE VIOLATED", exit 1, no snapshot — pinned.
    chaos("mix-hint", "degrade-check", "--scenario", "brownout", "--shards", "4", "--replay",
          "--adaptive", "--delivery", "hint", "--shard-strategy", "popularity_balanced",
          expect=1),
    chaos("hint-s1", "push-check", "--scenario", "outage", "--delivery", "hint"),
    chaos("hint-s4", "push-check", "--scenario", "outage", "--delivery", "hint", "--shards", "4"),
    chaos("push-s1", "push-check", "--scenario", "outage", "--delivery", "push"),
    chaos("push-s4", "push-check", "--scenario", "outage", "--delivery", "push", "--shards", "4"),
    chaos("mix-push", "push-check", "--scenario", "outage", "--shards", "4", "--replay",
          "--adaptive", "--delivery", "push", "--shard-strategy", "round_robin"),
    Row("smoke", "experiments-smoke", SMOKE + ("--jobs", "4"), other=SMOKE + ("--in-process",)),
    # The §4 testbed: the official services (A1-A7), Our Service (E2) and,
    # through the day-long example, Nest, Weather, SmartThings and queries.
    *(t2a(f"A{index}", "official") for index in range(1, 8)),
    t2a("A1", "E2"),
    t2a("A4", "E2"),
    Row("day-in-the-life", "testbed-check", ("{checkout}/examples/day_in_the_life.py",)),
)


def unpack(ref: str, into: str) -> None:
    """``git archive REF`` extracted into ``into``."""
    archive = os.path.join(into, "base.tar")
    subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, ref], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    os.remove(archive)


def python(args: Sequence[str], checkout: str) -> List[str]:
    """The command line for ``args``, ``{checkout}`` filled in."""
    return [sys.executable, *(arg.replace("{checkout}", checkout) for arg in args)]


def produce(checkout: str, out: str, rows: Sequence[Row], side: int, ref_only: bool) -> List[str]:
    """Run ``rows`` against ``checkout`` as side 0 (A) or 1 (B), each row's
    artifacts into ``out/<row.name>/``; returns the rows that exited wrong."""
    # The children of `experiments --jobs 4` inherit this env, not make's.
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONHASHSEED=str(side + 1))
    failed = []
    for row in rows:
        cwd = os.path.join(out, row.name)
        os.makedirs(cwd)
        args = row.other if side and row.other else row.args
        done = subprocess.run(
            python(args, checkout), cwd=cwd, env=env, capture_output=True, text=True
        )
        if done.returncode != row.expect:
            failed.append(f"{row.name}: exit {done.returncode}, not {row.expect}\n{done.stderr}")
        if done.stdout or done.stderr:
            with open(os.path.join(cwd, "summary.txt"), "w", encoding="utf-8") as handle:
                handle.write(done.stdout + done.stderr)
    if ref_only:
        produce_ref_only(checkout, out, env)
    return failed


def produce_ref_only(checkout: str, out: str, env: dict) -> None:
    """What is compared against a REF only: the in-process smoke matrix's
    ``results.json`` and the ledger readings (fingerprints and counts)."""
    smoke, ledger = os.path.join(out, "smoke"), os.path.join(out, "ledger")
    for folder in (smoke, ledger):
        os.makedirs(folder)
    with tempfile.TemporaryDirectory() as scratch:
        subprocess.run(
            python(SMOKE + ("--in-process",), checkout),
            cwd=scratch, env=env, check=True, capture_output=True,
        )
        shutil.copy(os.path.join(scratch, "results.json"), smoke)
    for seed in FINGERPRINT_SEEDS:
        done = subprocess.run(
            [sys.executable, os.path.join(checkout, "benchmarks", "ledger", "run.py"),
             "--seconds", "1", "--repeats", "1", "--seed", seed, "--trace", "0"],
            cwd=out, env=env, check=True, capture_output=True, text=True,
        )
        readings: Dict[str, Dict[str, str]] = {}
        for line in done.stdout.splitlines():
            if line.endswith((" count", " sha256")):
                workload, metric, value = line.split(" ", 2)
                readings.setdefault(workload, {})[metric] = value
        with open(os.path.join(ledger, f"seed{seed}.json"), "w", encoding="utf-8") as handle:
            json.dump(readings, handle, indent=1)


def artifacts(out: str) -> List[str]:
    """Every pinned file under ``out``, relative to it: all a row left
    except ``run_meta.json``, which carries the wall clock."""
    return [
        os.path.relpath(os.path.join(folder, name), out)
        for folder, _, names in os.walk(out)
        for name in names
        if name != "run_meta.json"
    ]


def pinned(path: str) -> Optional[bytes]:
    """The bytes of ``path`` without its wall-clock lines; ``None`` if absent."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not any(name in line for name in WALLCLOCK))


#: What a declared field's value is replaced by before two artifacts compare.
DECLARED = "<declared>"
#: (artifact glob, field pattern) pairs read from an ``--expect`` file.
Expectations = Sequence[Tuple[str, str]]


def read_expectations(path: str) -> List[Tuple[str, str]]:
    """The (artifact glob, field) pairs an ``--expect`` declaration names."""
    with open(path, encoding="utf-8") as handle:
        declaration = json.load(handle)
    return [(item["artifacts"], field) for item in declaration["expect"]
            for field in item["fields"]]


def _mask(value: Any, path: str, fields: Sequence[str], where: str, seen: Dict) -> Any:
    """``value`` with each part whose path matches one of ``fields``
    replaced by :data:`DECLARED`; what was replaced goes into
    ``seen[field][where + path]``."""
    for field in fields:
        if fnmatchcase(path, field):
            seen.setdefault(field, {})[where + path] = value
            return DECLARED
    if isinstance(value, dict):
        return {key: _mask(item, f"{path}.{key}" if path else key, fields, where, seen)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_mask(item, f"{path}.{index}" if path else str(index), fields, where, seen)
                for index, item in enumerate(value)]
    return value


#: A text artifact's ``name=value`` token (a metric name with labels,
#: ``{service=hue}``, is not one).
NAME_VALUE = re.compile(r"([\w.]+)=(.*)")


def _text_line(raw: str, line: int, fields: Sequence[str], seen: Dict) -> List[str]:
    """One line of a text artifact as tokens, masked: a ``name=value``
    token's path is the words before the line's first such token, then
    ``.name`` (``engine.t2a_seconds histogram.p50``)."""
    tokens = raw.split()
    pairs = [NAME_VALUE.fullmatch(token) for token in tokens]
    lead = " ".join(tokens[:next((i for i, pair in enumerate(pairs) if pair), len(tokens))])
    out = []
    for token, pair in zip(tokens, pairs):
        if pair:
            path = f"{lead}.{pair[1]}" if lead else pair[1]
            field = next((field for field in fields if fnmatchcase(path, field)), None)
            if field is not None:
                seen.setdefault(field, {})[f"line {line} {path}"] = pair[2]
                token = f"{pair[1]}={DECLARED}"
        out.append(token if token.strip("-") else "-")  # a rule is as wide as its column
    return out


def masked(name: str, data: bytes, fields: Sequence[str]) -> Tuple[List[Tuple[str, Any]], Dict]:
    """An artifact as ``(where, part)`` records with its declared fields
    masked, and the values masked per field."""
    seen: Dict[str, Dict[str, Any]] = {}
    text = data.decode("utf-8")
    if name.endswith(".jsonl"):
        records = []
        for line, raw in enumerate(text.splitlines(), 1):
            entry = json.loads(raw)
            where = f"line {line} ({entry.get('name')}) "
            records.append((where, {
                key: _mask(value, f"{entry.get('type')}.{key}", fields, where, seen)
                for key, value in entry.items()
            }))
        return records, seen
    if name.endswith(".json"):
        return [("", _mask(json.loads(text), "", fields, "", seen))], seen
    return [
        (f"line {line} ", _text_line(raw, line, fields, seen))
        for line, raw in enumerate(text.splitlines(), 1)
    ], seen


def _first_difference(a: Any, b: Any, path: str = "") -> str:
    """The path of the first part where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b or _json(a[key]) != _json(b[key]):
                return _first_difference(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    if isinstance(a, list) and isinstance(b, list):
        for index, (left, right) in enumerate(zip(a, b)):
            if _json(left) != _json(right):
                return _first_difference(left, right, f"{path}.{index}" if path else str(index))
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}:]"
    return path or "(whole)"


def _json(value: Any) -> str:
    """``value`` as JSON text: 1 and 1.0 compare different, as their bytes do."""
    return json.dumps(value)


def compare(name: str, a_path: str, b_path: str, expected: Expectations) -> Tuple[Optional[str], Set]:
    """``(what differs undeclared or None, the (glob, field) pairs that moved)``
    for one artifact, ``name`` being its ``row/artifact`` path."""
    a, b = pinned(a_path), pinned(b_path)
    declared = [(glob, field) for glob, field in expected if fnmatchcase(name, glob)]
    if a is None or b is None or not declared:
        return (None if a == b and a is not None else "differs"), set()
    (a_records, a_seen), (b_records, b_seen) = (
        masked(name, data, [field for _, field in declared]) for data in (a, b)
    )
    moved = {pair for pair in declared if a_seen.get(pair[1]) != b_seen.get(pair[1])}
    for (where, left), (_, right) in zip(a_records, b_records):
        if _json(left) != _json(right):
            if isinstance(left, list):  # a line of text
                left, right = next(pair for pair in zip(left + [""], right + [""])
                                   if pair[0] != pair[1])
                return f"{where}{left!r} vs {right!r}", moved
            return f"{where}{_first_difference(left, right)}".strip(), moved
    if len(a_records) != len(b_records):
        return f"{min(len(a_records), len(b_records))} records, then one side ends", moved
    return None, moved


def differing(a_out: str, b_out: str, row: str = "", expected: Expectations = ()
              ) -> Tuple[List[str], Set]:
    """``(artifacts present on one side only or differing beyond what
    ``expected`` declares, each with what differs; the declared (glob,
    field) pairs that did differ)``."""
    names = sorted(set(artifacts(a_out)) | set(artifacts(b_out)))
    bad, moved = [], set()
    for name in names:
        what, fields = compare(
            f"{row}/{name}", os.path.join(a_out, name), os.path.join(b_out, name), expected
        )
        moved |= fields
        if what is not None:
            bad.append(name if what == "differs" else f"{name}: {what}")
    return bad, moved


def judge(a_out: str, b_out: str, label: str, expected: Expectations = ()) -> bool:
    """Print each row's verdict, side A's ``a_out/<row>`` against side B's,
    and every declared field that moved nowhere; True when all is well."""
    ok, moved = True, set()
    for name in sorted(os.listdir(b_out)):
        row_a, row_b = os.path.join(a_out, name), os.path.join(b_out, name)
        (bad, fields), total = differing(row_a, row_b, name, expected), len(artifacts(row_b))
        moved |= fields
        if bad or not total:
            ok = False
            print(f"{label}: {name}: DRIFT ({'; '.join(bad) or 'no artifact produced'})")
        elif fields:
            print(f"{label}: {name}: OK ({total} artifacts, drift only as declared: "
                  f"{', '.join(sorted({field for _, field in fields}))})")
        else:
            print(f"{label}: {name}: OK ({total} artifacts byte-identical)")
    for glob, field in expected:
        if (glob, field) not in moved:
            ok = False
            print(f"{label}: DECLARED BUT UNCHANGED: {field} in {glob}")
    return ok


def main(argv=None, table: Sequence[Row] = TABLE) -> int:
    groups = sorted({row.group for row in table})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "targets", nargs="*", metavar="REF | GROUP",
        help=f"a git ref to compare the working tree against, or row groups to run the "
             f"tree against itself ({', '.join(groups)}; none: every row)",
    )
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    parser.add_argument(
        "--expect", metavar="DRIFT.json",
        help="against a REF: the declaration of the fields that may differ",
    )
    args = parser.parse_args(argv)
    ref = None
    if not set(args.targets) <= set(groups):
        if len(args.targets) != 1:
            parser.error(f"expected one git ref or only group names, got {args.targets}")
        (ref,) = args.targets
    if args.expect and ref is None:
        parser.error("--expect declares a drift against a REF; name one")
    expected = read_expectations(args.expect) if args.expect else []
    label = "determinism" if ref is None else "parity-check"
    scratch = tempfile.mkdtemp(prefix="parity-")
    try:
        checkouts = [ROOT, ROOT]
        if ref is None:
            rows = [row for row in table if row.group in (args.targets or groups)]
        else:
            # The two-variant rows compare the tree with itself and, on
            # their first variant alone, would repeat single-variant rows.
            rows = [row for row in table if row.other is None]
            checkouts[0] = os.path.join(scratch, "base")
            os.makedirs(checkouts[0])
            unpack(ref, checkouts[0])
        a_out, b_out = outs = [os.path.join(scratch, f"out-{side}") for side in "ab"]
        # One process per side at a time; the two sides run side by side.
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(produce, checkout, out, rows, side, ref is not None)
                for side, (checkout, out) in enumerate(zip(checkouts, outs))
            ]
            failed = sorted({failure for future in futures for failure in future.result()})
        ok = not failed
        for failure in failed:
            print(f"{label}: FAILED {failure}", file=sys.stderr)
        ok = judge(a_out, b_out, label, expected) and ok
        if ok and ref is not None:
            names = [os.path.basename(name) for name in artifacts(b_out)]
            match = f"equal to {ref} but for what {args.expect} declares" if expected else (
                f"byte-identical to {ref}"
            )
            print(
                f"{label}: OK ({len(names)} artifacts {match}: "
                f"{names.count('snapshot.jsonl')} chaos snapshots + "
                f"{names.count('metrics.jsonl')} testbed metrics + "
                f"{len(rows)} summaries, chaos-shapes and smoke-matrix results, ledger "
                f"readings at seeds "
                f"{'/'.join(FINGERPRINT_SEEDS)})"
            )
        elif ok:
            print(f"{label}: OK ({len(rows)} rows byte-identical, PYTHONHASHSEED=1 vs 2)")
        return 0 if ok else 1
    finally:
        if args.keep:
            print(f"{label}: artifacts kept in {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
