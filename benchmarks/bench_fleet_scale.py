#!/usr/bin/env python
"""Fleet-scale benchmark: the PR-over-PR perf trajectory for poll dispatch.

Produces ``BENCH_fleet_scale.json`` with one section:

``fleet``
    The end-to-end fleet workload (:class:`~repro.testbed.workload.FleetWorld`,
    lean configuration) at 10K / 100K / 1M applets: simulator
    events/sec, polls/sec, and peak RSS.  Each size runs in its own
    subprocess so ``ru_maxrss`` (which is monotone over a process
    lifetime) and GC state cannot bleed between measurements.

Usage::

    python benchmarks/bench_fleet_scale.py                  # full run, writes JSON
    python benchmarks/bench_fleet_scale.py --quick          # small sizes, smoke test
    python benchmarks/bench_fleet_scale.py --check FILE     # CI: validate JSON fields
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_fleet_scale.json")
FLEET_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 2_000)
SEED = 7

#: Fields the CI gate requires of every committed ``fleet`` entry.
FLEET_FIELDS = ("n_applets", "events_per_sec", "polls_per_sec", "peak_rss_mb")


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child measurements (each runs in its own subprocess) -----------------------


def measure_fleet(n_applets: int, horizon: float) -> dict:
    """End-to-end fleet workload, lean config."""
    from repro.engine.config import EngineConfig
    from repro.testbed.workload import FleetWorld

    config = EngineConfig(initial_poll_jitter=120.0)
    t0 = time.perf_counter()
    world = FleetWorld(
        n_applets,
        engine_config=config,
        seed=SEED,
        with_trace=False,
        with_metrics=False,
        shared_user=True,
        warmup=False,
    )
    t1 = time.perf_counter()
    world.sim.run_until(horizon)
    t2 = time.perf_counter()
    events = world.sim.fired_count
    polls = world.engine.polls_sent
    return {
        "n_applets": n_applets,
        "horizon_sim_seconds": horizon,
        "setup_seconds": round(t1 - t0, 3),
        "run_seconds": round(t2 - t1, 3),
        "sim_events_fired": events,
        "polls_sent": polls,
        "events_per_sec": round(events / (t2 - t1), 1),
        "polls_per_sec": round(polls / (t2 - t1), 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "scheduler": world.engine.poll_dispatch_stats(),
    }


# -- orchestration --------------------------------------------------------------

CHILD_MEASURES = {"fleet": measure_fleet}


def run_child(measure: str, *args) -> dict:
    """Re-exec this script to run one measurement in a fresh process."""
    payload = json.dumps({"measure": measure, "args": list(args)})
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", payload],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {measure}{args} failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_full(sizes, output: str, isolate: bool = True) -> dict:
    def run(measure, *args):
        if isolate:
            return run_child(measure, *args)
        return CHILD_MEASURES[measure](*args)

    report = {
        "benchmark": "fleet_scale",
        "description": "poll-dispatch hot path at fleet scale (ISSUE 6)",
        "python": sys.version.split()[0],
        "seed": SEED,
        "fleet": [],
    }

    for size in sizes:
        print(f"[fleet] {size} applets ...", flush=True)
        entry = run("fleet", size, 250.0)
        report["fleet"].append(entry)
        print(
            f"  events/sec={entry['events_per_sec']} "
            f"polls/sec={entry['polls_per_sec']} "
            f"peak_rss_mb={entry['peak_rss_mb']}",
            flush=True,
        )

    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}")
    return report


# -- CI gate --------------------------------------------------------------------


def check_report(path: str) -> int:
    """Validate the committed JSON: required fields at required sizes."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-scale: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    errors = []
    sizes = {entry.get("n_applets") for entry in report.get("fleet", [])}
    for required in FLEET_SIZES:
        if required not in sizes:
            errors.append(f"fleet section missing size {required}")
    for entry in report.get("fleet", []):
        for field in FLEET_FIELDS:
            if field not in entry:
                errors.append(f"fleet[{entry.get('n_applets')}] missing {field!r}")
    for err in errors:
        print(f"bench-scale: {err}", file=sys.stderr)
    if not errors:
        print(f"bench-scale: {path} ok (sizes={sorted(sizes)})")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, in-process (smoke test)"
    )
    parser.add_argument(
        "--check", metavar="FILE", help="validate a committed report's fields"
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spec = json.loads(args.child)
        result = CHILD_MEASURES[spec["measure"]](*spec["args"])
        print(json.dumps(result))
        return 0
    if args.check:
        return check_report(args.check)
    sizes = QUICK_SIZES if args.quick else FLEET_SIZES
    run_full(sizes, args.output, isolate=not args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
