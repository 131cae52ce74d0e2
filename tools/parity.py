#!/usr/bin/env python3
"""Byte-parity of the working tree against a base commit: one command.

    python tools/parity.py BASE          # or: make parity-check BASE=<git-ref>

Unpacks ``BASE`` (any git ref; ``git archive``, so nothing is left
registered in ``.git`` and no network is touched) beside the working
tree, runs the same deterministic commands on both, and ``cmp``-s what
they produce:

* the 18 ``repro chaos --seed 7`` configurations — every built-in
  scenario at ``--shards 1`` and ``4``, ``--replay``, ``--adaptive``,
  ``--delivery hint|push``, and two all-flags mixes — comparing the
  ``--snapshot`` file *and* the printed summary (a configuration that
  exits non-zero writes no snapshot; it must do so on both sides);
* ``EXPERIMENTS/matrix_smoke.json --in-process`` → ``results.json``;
* the five ledger workloads' ``sim_fingerprint`` and every ``count``
  line of ``benchmarks/ledger/run.py --seconds 1 --repeats 1 --trace 0``
  at seeds 7 and 11.

Exit 0 when everything is byte-identical, 1 with the list of differing
artifacts otherwise.  A PR that *intends* a behaviour change fails this
on purpose, which is why ``make ci`` does not run it.  ``--keep`` leaves
the scratch directory (path printed) for ``diff``-ing.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
FINGERPRINT_SEEDS = ("7", "11")

#: name -> extra ``repro chaos`` arguments (``--seed 7 --snapshot`` added).
CHAOS_CONFIGS: Dict[str, Tuple[str, ...]] = {
    **{
        f"{scenario}-s{shards}": ("--scenario", scenario, "--shards", shards)
        for scenario in ("outage", "partition", "flappy", "brownout")
        for shards in ("1", "4")
    },
    "replay-s1": ("--scenario", "outage", "--replay"),
    "replay-s4": ("--scenario", "outage", "--replay", "--shards", "4"),
    "adaptive-s1": ("--scenario", "brownout", "--adaptive"),
    "adaptive-s4": ("--scenario", "brownout", "--adaptive", "--shards", "4"),
    "hint-s1": ("--scenario", "outage", "--delivery", "hint"),
    "hint-s4": ("--scenario", "outage", "--delivery", "hint", "--shards", "4"),
    "push-s1": ("--scenario", "outage", "--delivery", "push"),
    "push-s4": ("--scenario", "outage", "--delivery", "push", "--shards", "4"),
    "mix-hint": (
        "--scenario", "brownout", "--shards", "4", "--replay", "--adaptive",
        "--delivery", "hint", "--shard-strategy", "popularity_balanced",
    ),
    "mix-push": (
        "--scenario", "outage", "--shards", "4", "--replay", "--adaptive",
        "--delivery", "push", "--shard-strategy", "round_robin", "--jobs", "2",
    ),
}


def unpack(ref: str, into: str) -> None:
    """``git archive REF`` extracted into ``into``."""
    archive = os.path.join(into, "base.tar")
    subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, ref], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    os.remove(archive)


def produce(checkout: str, out: str) -> None:
    """Run every parity command against ``checkout``, artifacts into ``out``."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name, extra in CHAOS_CONFIGS.items():
        # cwd=out with a relative snapshot path: the summary prints the
        # path it wrote, which must not name the side.
        done = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--seed", SEED, *extra,
             "--snapshot", f"chaos-{name}.jsonl"],
            cwd=out, env=env, capture_output=True, text=True,
        )
        with open(os.path.join(out, f"chaos-{name}.txt"), "w", encoding="utf-8") as handle:
            handle.write(f"exit {done.returncode}\n{done.stdout}{done.stderr}")
    smoke = os.path.join(out, "smoke")
    subprocess.run(
        [sys.executable, "-m", "repro", "experiments",
         os.path.join(checkout, "EXPERIMENTS", "matrix_smoke.json"),
         "--in-process", "--quiet", "--output", smoke],
        cwd=out, env=env, check=True, capture_output=True,
    )
    shutil.copy(os.path.join(smoke, "results.json"), os.path.join(out, "smoke-results.json"))
    shutil.rmtree(smoke)
    for seed in FINGERPRINT_SEEDS:
        done = subprocess.run(
            [sys.executable, os.path.join(checkout, "benchmarks", "ledger", "run.py"),
             "--seconds", "1", "--repeats", "1", "--seed", seed, "--trace", "0"],
            cwd=out, env=env, check=True, capture_output=True, text=True,
        )
        simulated = [
            line for line in done.stdout.splitlines()
            if line.endswith((" count", " sha256"))
        ]
        with open(os.path.join(out, f"ledger-seed{seed}.txt"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(simulated) + "\n")


def differing(base_out: str, head_out: str) -> List[str]:
    """Artifact names present on one side only or differing bytewise."""
    names = sorted(set(os.listdir(base_out)) | set(os.listdir(head_out)))
    _, mismatch, errors = filecmp.cmpfiles(base_out, head_out, names, shallow=False)
    return sorted(mismatch + errors)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="git ref to compare the working tree against")
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="parity-")
    try:
        base = os.path.join(scratch, "base")
        os.makedirs(base)
        unpack(args.base, base)
        sides = {"base": base, "head": ROOT}
        # One process per side at a time; the two sides run side by side.
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [
                pool.submit(produce, checkout, os.path.join(scratch, f"out-{side}"))
                for side, checkout in sides.items()
            ]:
                future.result()
        base_out, head_out = (os.path.join(scratch, f"out-{side}") for side in sides)
        bad = differing(base_out, head_out)
        total = len(os.listdir(head_out))
        if bad:
            print(f"parity-check: DRIFT against {args.base} in {len(bad)}/{total} artifacts:")
            for name in bad:
                print(f"  {name}")
            if args.keep:
                print(f"  diff -r {base_out} {head_out}")
            return 1
        snapshots = sum(1 for name in os.listdir(head_out) if name.endswith(".jsonl"))
        print(
            f"parity-check: OK ({total} artifacts byte-identical to {args.base}: "
            f"{snapshots} chaos snapshots + {len(CHAOS_CONFIGS)} summaries, "
            f"smoke-matrix results.json, ledger fingerprints at seeds "
            f"{'/'.join(FINGERPRINT_SEEDS)})"
        )
        return 0
    finally:
        if args.keep:
            print(f"parity-check: artifacts kept in {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
