#!/usr/bin/env python3
"""What ``make test`` costs: wall seconds, three repeats each, for every
prerequisite of the Makefile's ``test`` target (read from the Makefile,
not repeated here) and for the ``pytest tests/`` its recipe runs.

    python tools/time_make_test.py LABEL [CHECKOUT]   # e.g. the parent commit

merges ``{LABEL: ...}`` into ``BENCH_make_test.json`` with the per-repeat
total and the ledger's ``hardware`` block.  A record, not a gate.
"""
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "ledger"))
from run import hardware  # noqa: E402

REPORT = os.path.join(ROOT, "BENCH_make_test.json")


def main(label: str, checkout: str = ROOT) -> None:
    with open(os.path.join(checkout, "Makefile"), encoding="utf-8") as handle:
        prerequisites = re.search(r"^test:(.*)$", handle.read(), re.M).group(1).split()
    steps = {name: ["make", name] for name in prerequisites}
    steps["pytest tests/"] = [sys.executable, "-m", "pytest", "tests/", "-q"]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    entry = {"hardware": hardware(), "unit": "s"}
    runs = {name: [] for name in steps}
    for _ in range(3):
        for name, command in steps.items():
            started = time.perf_counter()
            subprocess.run(command, cwd=checkout, env=env, check=True)
            runs[name].append(round(time.perf_counter() - started, 2))
    runs["total"] = [round(sum(repeat), 2) for repeat in zip(*runs.values())]
    entry["hardware"]["loadavg_end"] = list(os.getloadavg())
    entry["steps"] = {name: {"median": statistics.median(walls), "min": min(walls),
                             "max": max(walls), "runs": walls} for name, walls in runs.items()}
    with open(REPORT, encoding="utf-8") as handle:
        report = json.load(handle)
    with open(REPORT, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({**report, label: entry}, indent=2) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
