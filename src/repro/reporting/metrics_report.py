"""Rendering and export of metrics snapshots.

The CLI's ``--metrics PATH`` flag funnels through here: a run's
:class:`~repro.obs.metrics.MetricsRegistry` snapshot is written as
JSON-lines (one metric per line — trivially ``grep``-able and
stream-parsable) and a human summary of the most informative entries is
printed alongside the experiment's own output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, snapshot_to_json_lines
from repro.reporting.table import render_table

Snapshot = Dict[str, Any]


def _as_snapshot(source: Union[MetricsRegistry, Snapshot]) -> Snapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def write_metrics_json(source: Union[MetricsRegistry, Snapshot], path: str) -> str:
    """Write a snapshot as JSON-lines; returns the path written."""
    with open(path, "w") as handle:
        handle.write(snapshot_to_json_lines(_as_snapshot(source)))
        handle.write("\n")
    return path


def _format_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def render_metrics_summary(
    source: Union[MetricsRegistry, Snapshot], limit: Optional[int] = None
) -> str:
    """A compact table of every non-empty metric in a snapshot.

    Counters and gauges render their value; histograms render count,
    mean, and the p50/p95/p99 read from their buckets.
    """
    snapshot = _as_snapshot(source)
    rows: List[List[str]] = []
    for entry in snapshot["metrics"]:
        name = entry["name"] + _format_labels(entry["labels"])
        if entry["type"] in ("counter", "gauge"):
            value = entry["value"]
            if value == 0:
                continue
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            rows.append([name, entry["type"], rendered])
        else:
            count = entry["count"]
            if count == 0:
                continue
            mean = entry["sum"] / count
            quantiles = entry.get("quantiles", {})
            landmarks = " ".join(
                f"p{float(q) * 100:g}={quantiles[q]:.3g}"
                for q in sorted(quantiles, key=float)
                if float(q) in (0.5, 0.95, 0.99)
            )
            rows.append([name, "histogram", f"n={count} mean={mean:.3g} {landmarks}"])
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "(no metrics recorded)"
    return render_table(["metric", "type", "value"], rows)
