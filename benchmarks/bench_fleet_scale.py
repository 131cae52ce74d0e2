#!/usr/bin/env python
"""Fleet-scale benchmark: the PR-over-PR perf trajectory for poll dispatch.

Produces ``BENCH_fleet_scale.json`` with three sections:

``fleet``
    The end-to-end fleet workload (:class:`~repro.testbed.workload.FleetWorld`,
    lean configuration) at 10K / 100K / 1M applets under the heap
    scheduler: simulator events/sec, polls/sec, and peak RSS.  Each size
    runs in its own subprocess so ``ru_maxrss`` (which is monotone over a
    process lifetime) and GC state cannot bleed between measurements.

``dispatch``
    The dispatch layer in isolation at 100K applets — the production
    scheduler classes driven with a minimal poll body, so the numbers
    measure scheduling cost rather than the (mode-independent) simulated
    HTTP exchange.  Two scenarios:

    * ``steady``: lognormal production intervals, reschedule per poll —
      the paper's §4 polling cadence.
    * ``hint_churn``: every poll cycle is rescheduled ``CHURN`` times
      before it fires, the shape realtime-hint storms impose (§6's
      bursty-IoT load model).  Under the seed's per-applet timers each
      reschedule allocates a fresh Event and leaves the dead one churning
      through a 100K-entry simulator heap; the heap scheduler's lazy
      cancellation makes it an O(1) generation bump.

    ``speedup_vs_timers`` (the acceptance headline) is the hint-churn
    ratio; per-scenario ratios are reported alongside.

``snapshot_gate``
    Determinism guard at 10K applets: the fully instrumented fleet
    workload run under both dispatch modes must produce *byte-identical*
    :func:`~repro.obs.metrics.dispatch_invariant_snapshot` blobs and
    identical action counts.  ``make bench-scale`` re-runs this gate (and
    validates the committed JSON's fields) in CI.

Usage::

    python benchmarks/bench_fleet_scale.py                  # full run, writes JSON
    python benchmarks/bench_fleet_scale.py --quick          # small sizes, smoke test
    python benchmarks/bench_fleet_scale.py --gate-only      # CI: snapshot gate only
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
DISPATCH_N = 100_000
CHURN = 4
SEED = 7

#: Fields the CI gate requires of every committed ``fleet`` entry.
FLEET_FIELDS = ("n_applets", "events_per_sec", "polls_per_sec", "peak_rss_mb")


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child measurements (each runs in its own subprocess) -----------------------


def measure_fleet(n_applets: int, horizon: float) -> dict:
    """End-to-end fleet workload under the heap scheduler, lean config."""
    from repro.engine.config import EngineConfig
    from repro.testbed.workload import FleetWorld

    config = EngineConfig(initial_poll_jitter=120.0, poll_dispatch="heap")
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


class _DispatchHarness:
    """Minimal engine stand-in: the real schedulers, a counter for a poll body."""

    def __init__(self, mode: str, n: int) -> None:
        from repro.engine.applet import ActionRef, Applet, TriggerRef
        from repro.engine.engine import _AppletRuntime
        from repro.engine.poller import ProductionPollingPolicy
        from repro.engine.scheduler import make_poll_scheduler
        from repro.simcore.rng import Rng
        from repro.simcore.simulator import Simulator

        self.sim = Simulator()
        self.rng = Rng(seed=SEED, name="dispatch")
        self._scheduler = make_poll_scheduler(self, mode)
        self._applets = {}
        self.polls = 0
        self.churn = 0
        proto = ProductionPollingPolicy()
        trig = TriggerRef("svc", "t")
        act = ActionRef("svc", "a", {})
        self.runtimes = []
        for i in range(n):
            applet = Applet(
                applet_id=i, name=f"a{i}", user="u", trigger=trig, action=act
            )
            runtime = _AppletRuntime(applet=applet, policy=proto.clone())
            self.runtimes.append(runtime)
            self._applets[i] = runtime

    def _poll(self, runtime) -> None:
        self.polls += 1
        delay = runtime.policy.next_interval(self.rng)
        self._scheduler.schedule(runtime, delay)
        for _ in range(self.churn):
            # a realtime hint pulls the pending poll earlier: the seed
            # baseline cancels the timer and schedules a fresh Event
            delay *= 0.5
            self._scheduler.schedule(runtime, delay)


def measure_dispatch(mode: str, scenario: str, n: int, horizon: float) -> dict:
    """Dispatch-layer throughput for one (mode, scenario) pair."""
    harness = _DispatchHarness(mode, n)
    harness.churn = CHURN if scenario == "hint_churn" else 0
    for runtime in harness.runtimes:
        harness._scheduler.schedule(
            runtime, harness.rng.uniform(0, 300.0), initial=True
        )
    t0 = time.perf_counter()
    harness.sim.run_until(horizon)
    elapsed = time.perf_counter() - t0
    return {
        "mode": mode,
        "scenario": scenario,
        "n_applets": n,
        "horizon_sim_seconds": horizon,
        "polls": harness.polls,
        "run_seconds": round(elapsed, 3),
        "polls_per_sec": round(harness.polls / elapsed, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def measure_snapshot_gate(n_applets: int) -> dict:
    """Both dispatch modes over the instrumented fleet; snapshots must match."""
    import hashlib

    from repro.engine.config import EngineConfig
    from repro.obs.metrics import dispatch_invariant_snapshot
    from repro.testbed.workload import FleetWorld

    outcomes = {}
    for mode in ("heap", "timers"):
        config = EngineConfig(initial_poll_jitter=120.0, poll_dispatch=mode)
        world = FleetWorld(n_applets, engine_config=config, seed=11)
        result = world.run_publications(publications=2, spacing=300.0)
        blob = json.dumps(
            dispatch_invariant_snapshot(world.metrics), sort_keys=True
        ).encode()
        outcomes[mode] = {
            "snapshot_sha256": hashlib.sha256(blob).hexdigest(),
            "actions_executed": result.actions_executed,
            "polls_sent": world.engine.polls_sent,
        }
    return {
        "n_applets": n_applets,
        "identical": (
            outcomes["heap"]["snapshot_sha256"]
            == outcomes["timers"]["snapshot_sha256"]
            and outcomes["heap"]["actions_executed"]
            == outcomes["timers"]["actions_executed"]
        ),
        **outcomes,
    }


# -- orchestration --------------------------------------------------------------

CHILD_MEASURES = {
    "fleet": measure_fleet,
    "dispatch": measure_dispatch,
    "snapshot_gate": measure_snapshot_gate,
}


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
        "dispatch": {"n_applets": DISPATCH_N, "churn": CHURN, "scenarios": {}},
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

    dispatch_n = DISPATCH_N if not (set(sizes) == set(QUICK_SIZES)) else max(sizes)
    report["dispatch"]["n_applets"] = dispatch_n
    # hint_churn runs past the 0-300s poll-start spread: the timer
    # baseline only reaches its degraded steady state (a sim heap full
    # of cancelled events) once the whole fleet is churning.
    for scenario, horizon in (("steady", 300.0), ("hint_churn", 400.0)):
        pair = {}
        for mode in ("heap", "timers"):
            print(f"[dispatch] {scenario}/{mode} at {dispatch_n} ...", flush=True)
            pair[mode] = run("dispatch", mode, scenario, dispatch_n, horizon)
        speedup = round(
            pair["heap"]["polls_per_sec"] / pair["timers"]["polls_per_sec"], 2
        )
        report["dispatch"]["scenarios"][scenario] = {**pair, "speedup": speedup}
        print(f"  speedup {scenario}: {speedup}x", flush=True)
    report["speedup_vs_timers"] = report["dispatch"]["scenarios"]["hint_churn"][
        "speedup"
    ]

    gate_n = 10_000 if not (set(sizes) == set(QUICK_SIZES)) else min(sizes)
    print(f"[snapshot_gate] {gate_n} applets, heap vs timers ...", flush=True)
    report["snapshot_gate"] = run("snapshot_gate", gate_n)
    print(f"  identical: {report['snapshot_gate']['identical']}", flush=True)

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
    if "speedup_vs_timers" not in report:
        errors.append("missing top-level 'speedup_vs_timers'")
    gate = report.get("snapshot_gate", {})
    if gate.get("identical") is not True:
        errors.append("snapshot_gate.identical is not true")
    for err in errors:
        print(f"bench-scale: {err}", file=sys.stderr)
    if not errors:
        print(
            f"bench-scale: {path} ok "
            f"(sizes={sorted(sizes)}, speedup_vs_timers={report['speedup_vs_timers']}x)"
        )
    return 1 if errors else 0


def run_gate(n_applets: int = 10_000) -> int:
    """Re-run the determinism gate live (CI): modes must agree at 10K."""
    outcome = measure_snapshot_gate(n_applets)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    if not outcome["identical"]:
        print(
            "bench-scale: deterministic-snapshot gate DIVERGED between "
            "heap and timers dispatch",
            file=sys.stderr,
        )
        return 1
    print(f"bench-scale: snapshot gate ok at {n_applets} applets")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, in-process (smoke test)"
    )
    parser.add_argument(
        "--gate-only",
        action="store_true",
        help="run only the 10K deterministic-snapshot gate (CI)",
    )
    parser.add_argument(
        "--gate-size", type=int, default=10_000, help="applets for --gate-only"
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
    if args.gate_only:
        return run_gate(args.gate_size)
    sizes = QUICK_SIZES if args.quick else FLEET_SIZES
    report = run_full(sizes, args.output, isolate=not args.quick)
    return 0 if report["snapshot_gate"]["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
