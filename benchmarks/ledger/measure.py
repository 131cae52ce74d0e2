"""One repeat of one workload, run inside a fresh subprocess.

``run.py --child`` lands here.  The child builds the world (set-up),
runs the timed phase, reads the world out through ``adapters`` and
prints one JSON object; the parent aggregates repeats and checks them.
Given the untraced repeats' median ``run_s`` the same repeat runs under
:mod:`tracer`; end-to-end metrics are never taken from a traced child.

Host times are reported at *reference host speed*.  This sandbox's CPU
runs the same code 1.0-1.7x slower for seconds to minutes at a time
(README, "Noise"), so every repeat times a fixed pure-Python kernel
right before and right after its timed phase and scales its wall times
by ``CALIBRATION_REFERENCE_S / kernel time``.  The kernel never changes
and touches nothing of ``repro``, so a real regression shows in full
while the host's mood cancels.  The raw wall times are reported beside
the scaled ones as ``*_wall_s``.
"""

from __future__ import annotations

import gc
import heapq
import resource
import time
from typing import Any, Dict, Optional

import adapters
import spec
from tracer import HARNESS, OTHER, Tracer, corrected_self_ns


#: What :func:`calibration_kernel` takes on the host all times are scaled
#: to: about this sandbox in its fast state.  A unit, not a measurement.
CALIBRATION_REFERENCE_S = 0.100
CALIBRATION_ROUNDS = 11
CALIBRATION_ITEMS = 8_000


def calibration_kernel() -> float:
    """Seconds a fixed heap/dict loop takes on this host right now.

    Small rounds, so the kernel's own memory (under 1 MiB) never shows in
    a workload's peak RSS.
    """
    started = time.perf_counter()
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(CALIBRATION_ROUNDS):
        heap: list = []
        table: Dict[int, int] = {}
        for i in range(CALIBRATION_ITEMS):
            push(heap, ((i * 7919) % 10007, i))
            table[i & 1023] = i
        while heap:
            pop(heap)
    return time.perf_counter() - started


def _rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _t2a_metrics(workload: str, samples) -> Dict[str, float]:
    if not samples:
        return {}
    q25, q50, q75, q999 = adapters.quantiles(samples, [0.25, 0.5, 0.75, 0.999])
    metrics = {"t2a_p50_sim_s": q50, "t2a_p999_sim_s": q999}
    if workload == "fanout_observed":
        metrics["t2a_quartile_err_pct"] = 100.0 * max(
            abs(measured - paper) / paper
            for measured, paper in zip((q25, q50, q75), spec.PAPER_T2A_QUARTILES)
        )
    return metrics


def _compact_sample(sample) -> Dict[str, Any]:
    """The raw span sample as columns: names are indexed, times are
    relative to the first span, so 10,000 spans stay a few hundred KiB."""
    ordered = sorted(sample)
    names: Dict[Any, int] = {}
    origin = min((start for _, _, _, _, start, _ in ordered), default=0)
    spans = [
        [span_id, parent, names.setdefault((name, layer), len(names)),
         start - origin, end - start]
        for span_id, parent, name, layer, start, end in ordered
    ]
    return {
        "columns": ["id", "parent", "name", "start_ns", "duration_ns"],
        "names": [list(key) for key in names],
        "spans": spans,
    }


def _trace_report(
    tracer, calibration, speed: Dict[str, float], run_s: float,
    untraced_run_s: float, ops: int,
) -> Dict[str, Any]:
    """Per-layer metrics and the raw tables of one traced repeat.

    Self time is corrected in two steps.  The wrapper cost a no-op
    calibration found is subtracted per span
    (:func:`tracer.corrected_self_ns`), which is what decides the
    *shares*: a layer made of many short calls is not charged for being
    watched.  That calibration misses part of what watching costs
    (argument packing, callback wrapping, extra garbage collection), so
    all layers are then scaled alike until they sum to what the untraced
    timed phase took (``untraced_run_s``; with worker threads, to the same
    multiple of it as the raw self times are of the traced wall) —
    ``self_s`` and ``us_per_op`` then add up to the untraced ``run_s``.
    """
    setup, run = tracer.phases["setup"], tracer.phases["run"]
    raw_busy = sum(entry["self_ns"] for entry in run["layers"].values()) * speed["run"]
    own = {
        phase: {
            layer: corrected_self_ns(entry, calibration) * speed[phase]
            for layer, entry in tables["layers"].items()
        }
        for phase, tables in (("setup", setup), ("run", run))
    }
    target = raw_busy * min(1.0, untraced_run_s / run_s)
    scale = min(1.0, target / (sum(own["run"].values()) or 1.0))
    own = {
        phase: {layer: value * scale for layer, value in layers.items()}
        for phase, layers in own.items()
    }
    busy = sum(own["run"].values())
    metrics: Dict[str, float] = {
        "trace.overhead_pct": 100.0 * (run_s - untraced_run_s) / untraced_run_s,
    }
    for layer in spec.LAYERS:
        self_s = own["run"][layer] / 1e9
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.setup_self_s"] = own["setup"][layer] / 1e9
        metrics[f"{layer}.share_pct"] = 100.0 * own["run"][layer] / busy if busy else 0.0
        metrics[f"{layer}.calls_in"] = run["layers"][layer]["calls_in"]
        metrics[f"{layer}.us_per_op"] = self_s * 1e6 / ops if ops else 0.0
    loose = own["run"][HARNESS] + own["run"][OTHER]
    metrics["trace.unattributed_pct"] = 100.0 * loose / busy if busy else 0.0
    return {
        "metrics": metrics,
        "traced_run_s": run_s,
        "calibration_ns": calibration,
        "host_speed": speed,
        "phases": {"setup": setup, "run": run},
        "sample": _compact_sample(tracer.sample),
    }


def measure(
    workload: str, seed: int, scale: float, started: float,
    untraced_run_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Build, run and read out one workload; ``started`` is when this
    process began importing, so set-up time includes the import (which
    importing this module has just finished).  Given the untraced
    repeats' median ``run_s``, the repeat runs traced."""
    imported = time.perf_counter()
    baseline_rss = _rss_mb()
    tracer: Optional[Tracer] = None
    if untraced_run_s is not None:
        tracer = Tracer(spec.LAYERS, spec.layer_of_module)
        calibration = tracer.calibrate()
        tracer.install(adapters.ENTRY_POINTS)
    size = spec.size_of(workload, scale)
    job = adapters.WORKLOADS[workload](seed, size)
    try:
        if tracer is None:
            job.build()
        else:
            with tracer.phase("setup"), tracer.span("testbed", f"build:{workload}"):
                job.build()
        events_before, stats_before = job.progress()
        # Garbage from set-up is collected before the clock starts, not
        # at some allocation-count threshold inside the timed phase.
        gc.collect()
        built = time.perf_counter()
        kernel_before = calibration_kernel()
        run_started = time.perf_counter()
        if tracer is None:
            job.run()
        else:
            with tracer.phase("run"):
                job.run()
        run_wall_s = time.perf_counter() - run_started
        kernel_after = calibration_kernel()
        events_after, stats = job.progress()
        readout = job.readout()
    finally:
        if tracer is not None:
            tracer.uninstall()

    # Set-up is scaled by the kernel run that follows it, the timed phase
    # by the mean of the two kernel runs around it.
    speed = {
        "setup": CALIBRATION_REFERENCE_S / kernel_before,
        "run": CALIBRATION_REFERENCE_S / ((kernel_before + kernel_after) / 2),
    }
    setup_wall_s = built - started
    run_s = run_wall_s * speed["run"]
    events = events_after - events_before
    # what the timed phase added to each engine counter
    grown = {key: stats[key] - stats_before[key] for key in stats}
    polls, delivered = grown["polls_sent"], grown["actions_delivered"]
    dispatched = grown["actions_dispatched"]
    failed = grown["poll_failures"] + grown["action_failures"]
    attempted = polls + dispatched
    ops = polls + delivered
    failed_pct = 100.0 * failed / attempted if attempted else 0.0
    peak_rss = _rss_mb()
    scheduler = readout["scheduler"]

    end_to_end = {
        "setup_s": setup_wall_s * speed["setup"],
        "run_s": run_s,
        "ops_per_s": ops / run_s,
        "peak_rss_mb": peak_rss,
        "ok_ops_pct": 100.0 - failed_pct,
        "failed_ops_pct": failed_pct,
        **_t2a_metrics(workload, readout["t2a"]),
    }
    counts = {
        "simcore.events_fired": events,
        "simcore.us_per_event": run_s * 1e6 / events,
        "simcore.parallel.epochs": readout.get("epochs", 0),
        "simcore.parallel.mailbox_messages": readout.get("mailbox_messages", 0),
        "net.network.cross_shard_messages": readout.get("cross_shard_messages", 0),
        "engine.polls_sent": polls,
        "engine.actions_per_poll": delivered / polls if polls else 0.0,
        "engine.poll_failures": grown["poll_failures"],
        "engine.actions_dispatched": dispatched,
        "engine.actions_delivered": delivered,
        "engine.action_retries": grown["action_retries"],
        "engine.actions_shed": grown["actions_shed"],
        "engine.dead_letters": stats["dead_letters"],
        "engine.replay_requests_sent": stats["replay_requests_sent"],
        "engine.conservation_residual": sum(abs(r) for r in readout["shard_residuals"]),
        "engine.rss_per_applet_kb": (peak_rss - baseline_rss) * 1024.0 / size,
        "engine.scheduler.wakes": scheduler["wakes"],
        "engine.scheduler.batched_polls": scheduler["batched_polls"],
        "engine.scheduler.stale_entries": scheduler["stale_entries"],
        "engine.scheduler.compactions": scheduler["compactions"],
        "obs.series": readout.get("obs_series", 0),
        "obs.trace_records": readout.get("trace_records", 0),
        "obs.snapshot_ms": readout.get("obs_snapshot_ms", 0.0),
        "faults.activations": readout.get("faults_activated", 0),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "import_s": imported - started,
        "wall": {
            "setup_wall_s": setup_wall_s,
            "run_wall_s": run_wall_s,
            "host_kernel_ms": (kernel_before + kernel_after) * 500.0,
        },
        "end_to_end": end_to_end,
        "counts": counts,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "sim_fingerprint": adapters.sim_fingerprint(events_after, stats, readout),
        # what the invariants in checks.py read
        "facts": {
            "applets": stats["applets"],
            "polls_sent_total": stats["polls_sent"],
            "actions_executed": readout["actions_executed"],
            "actions_dispatched_total": stats["actions_dispatched"],
            "actions_delivered_total": stats["actions_delivered"],
            "shard_residuals": readout["shard_residuals"],
            "silently_lost": readout.get("silently_lost", 0),
            "faults_planned": readout.get("faults_planned", 0),
            "faults_activated": readout.get("faults_activated", 0),
            "faults_deactivated": readout.get("faults_deactivated", 0),
        },
    }
    if tracer is not None:
        result["trace"] = _trace_report(
            tracer, calibration, speed, run_s, untraced_run_s, ops
        )
    return result
