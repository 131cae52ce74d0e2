"""Metrics & observability for the reproduction (`repro.obs`).

A production-scale simulation needs more than the forensic
:class:`~repro.simcore.trace.Trace`: hot paths (the engine poll loop,
the HTTP layer, the network, the simulator kernel) update O(1)-memory
counters, gauges, and histograms in a shared
:class:`~repro.obs.metrics.MetricsRegistry`, holding them in a
:class:`~repro.obs.bound.Bound` so get-or-create runs once per series;
histograms count samples into fixed log-spaced buckets, from which
p50/p95/p99 are read, so a series costs the same at million-event
scale.  Snapshots are JSON-able, mergeable across shards, and exported
by the CLI's ``--metrics`` flag.

See ``docs/OBSERVABILITY.md`` for naming conventions and usage.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "bound": ("Bound",),
    "metrics": (
        "COUNT_BUCKETS", "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "MetricsRegistry",
        "QUANTILES", "ScopedRegistry", "WALLCLOCK_METRICS", "deterministic_snapshot",
        "merge_snapshots", "snapshot_from_json_lines", "snapshot_to_json_lines",
    ),
    "bridge": ("bridge_trace",),
})
