#!/usr/bin/env python
"""§6 scalability: poll vs. hint vs. push delivery at fleet scale.

"if all trigger services perform push, the incurred instantaneous
workload may be too high: IoT workload is known to be highly bursty; for
IFTTT it is likely also the case (consider popular applets such as
'update wallpaper with new NASA photo')".

The script produces ``BENCH_push_scale.json``: the three-way
comparison at 10K / 100K / 1M applets (lean ``FleetWorld``, each
(mode, size) pair in its own subprocess so peak RSS and GC state don't
bleed), reporting T2A quartiles and the engine request load over the
measurement window.  ``make bench-push`` validates the committed JSON's
fields and the acceptance headline — push T2A median under 10 s where
polling sits near the paper's 58 s quartile, with the engine's request
load cut at least 2x.  The same trade-off at 150 applets (hints are
sub-second but spike the engine; push keeps the latency and batches the
spike away) is a tier-1 test:
``tests/test_paper_fidelity.py::test_s6_push_burst_at_fleet_scale``.

Usage::

    python benchmarks/bench_scalability_push.py                # full run, writes JSON
    python benchmarks/bench_scalability_push.py --quick        # small sizes, smoke test
    python benchmarks/bench_scalability_push.py --check FILE   # CI: validate JSON
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


DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_push_scale.json")
FLEET_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (500, 1_500)
MODES = ("poll", "hint", "push")
PUBLICATIONS = 2
SPACING = 300.0
SEED = 7

#: Fields the CI gate requires of every committed entry.
ENTRY_FIELDS = (
    "mode", "n_applets", "actions_executed", "t2a_quartiles",
    "requests_in_window", "run_seconds", "peak_rss_mb",
)
#: Acceptance headline thresholds, checked at this fleet size.
HEADLINE_SIZE = 10_000
PUSH_MEDIAN_MAX = 10.0
POLL_MEDIAN_MIN = 30.0
REQUEST_REDUCTION_MIN = 2.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values):
    ordered = sorted(values)
    if not ordered:
        return None
    def pick(q):
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return [round(pick(0.25), 3), round(pick(0.5), 3), round(pick(0.75), 3)]


# -- child measurement (one (mode, size) pair per subprocess) -------------------


def measure_delivery(mode: str, n_applets: int) -> dict:
    """One lean fleet run under ``mode``; T2A + request load in-window."""
    from repro.engine.config import EngineConfig
    from repro.engine.push import PushPolicy
    from repro.testbed.workload import FleetWorld

    # Fleet-provisioned watermarks: a single publication fans out to
    # n_applets identities in one notification, so a fleet-sized burst
    # is steady state, not backlog (see run_fleet_experiment).
    push_policy = None
    if mode == "push":
        push_policy = PushPolicy(
            max_batch=1_000,
            low_watermark=max(64, n_applets),
            high_watermark=max(256, 4 * n_applets),
        )
    config = EngineConfig(
        realtime_allowlist=None if mode == "hint" else frozenset(),
        initial_poll_jitter=120.0,
        push_policy=push_policy,
    )
    t0 = time.perf_counter()
    world = FleetWorld(
        n_applets,
        engine_config=config,
        realtime=mode == "hint",
        push=mode == "push",
        seed=SEED,
        with_trace=False,
        with_metrics=False,
        shared_user=True,
        warmup=True,
    )
    t1 = time.perf_counter()
    # request load over the measurement window only — warmup registration
    # polls are identical across modes and would dilute the comparison
    polls_before = world.engine.polls_sent
    result = world.run_publications(publications=PUBLICATIONS, spacing=SPACING)
    t2 = time.perf_counter()
    return {
        "mode": mode,
        "n_applets": n_applets,
        "publications": PUBLICATIONS,
        "spacing_sim_seconds": SPACING,
        "actions_executed": result.actions_executed,
        "t2a_quartiles": _quartiles(result.latencies),
        "requests_in_window": world.engine.polls_sent - polls_before,
        "push_stats": {
            key: value
            for key, value in world.engine.stats().items()
            if key.startswith("push_")
        } if mode == "push" else None,
        "setup_seconds": round(t1 - t0, 3),
        "run_seconds": round(t2 - t1, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def run_child(mode: str, n_applets: int) -> dict:
    payload = json.dumps({"mode": mode, "n_applets": n_applets})
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
            f"child {mode}@{n_applets} failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_full(sizes, output: str, isolate: bool = True) -> dict:
    report = {
        "benchmark": "push_scale",
        "description": "three-way delivery-mode comparison (ISSUE 8)",
        "python": sys.version.split()[0],
        "seed": SEED,
        "entries": [],
    }
    for size in sizes:
        for mode in MODES:
            print(f"[{mode}] {size} applets ...", flush=True)
            entry = run_child(mode, size) if isolate else measure_delivery(mode, size)
            report["entries"].append(entry)
            print(
                f"  t2a_quartiles={entry['t2a_quartiles']} "
                f"requests={entry['requests_in_window']} "
                f"run_seconds={entry['run_seconds']}",
                flush=True,
            )
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}")
    return report


# -- CI gate --------------------------------------------------------------------


def check_report(path: str) -> int:
    """Validate the committed JSON: fields, sizes, and the §6 headline."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-push: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    errors = []
    entries = report.get("entries", [])
    by_key = {}
    for entry in entries:
        for field in ENTRY_FIELDS:
            if field not in entry:
                errors.append(
                    f"entry {entry.get('mode')}@{entry.get('n_applets')} "
                    f"missing {field!r}"
                )
        by_key[(entry.get("mode"), entry.get("n_applets"))] = entry
    for size in FLEET_SIZES:
        for mode in MODES:
            if (mode, size) not in by_key:
                errors.append(f"missing entry {mode}@{size}")
    if not errors:
        poll = by_key[("poll", HEADLINE_SIZE)]
        push = by_key[("push", HEADLINE_SIZE)]
        poll_median = poll["t2a_quartiles"][1]
        push_median = push["t2a_quartiles"][1]
        if push_median >= PUSH_MEDIAN_MAX:
            errors.append(
                f"push T2A median {push_median}s >= {PUSH_MEDIAN_MAX}s at "
                f"{HEADLINE_SIZE} applets"
            )
        if poll_median <= POLL_MEDIAN_MIN:
            errors.append(
                f"poll T2A median {poll_median}s <= {POLL_MEDIAN_MIN}s at "
                f"{HEADLINE_SIZE} applets (comparison baseline off)"
            )
        reduction = poll["requests_in_window"] / max(1, push["requests_in_window"])
        if reduction < REQUEST_REDUCTION_MIN:
            errors.append(
                f"request-load reduction {reduction:.2f}x < "
                f"{REQUEST_REDUCTION_MIN}x at {HEADLINE_SIZE} applets"
            )
    for err in errors:
        print(f"bench-push: {err}", file=sys.stderr)
    if not errors:
        print(
            f"bench-push: {path} ok (push median {push_median}s vs poll "
            f"{poll_median}s at {HEADLINE_SIZE} applets, request load "
            f"cut {reduction:.1f}x)"
        )
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
        print(json.dumps(measure_delivery(spec["mode"], spec["n_applets"])))
        return 0
    if args.check:
        return check_report(args.check)
    sizes = QUICK_SIZES if args.quick else FLEET_SIZES
    run_full(sizes, args.output, isolate=not args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
