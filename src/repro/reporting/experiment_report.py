"""Render an experiment matrix's aggregated results.

The text form is one row per cell — sweep, swept parameters, sample
count, T2A quartiles, and the median confidence interval — grouped by
sweep in cell order, the same order ``results.json`` carries.  The JSON
form is the results dict itself (already canonical); ``render_experiment_json``
just re-serializes it byte-stably for printing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

from repro.reporting.table import render_table

#: Axis order for the params column (matches the spec vocabulary order).
_PARAM_ORDER = (
    "scenario",
    "applet",
    "fault_plan",
    "shards",
    "shard_strategy",
    "corpus_size",
    "delivery_mode",
)


def _params_label(params: Mapping[str, Any]) -> str:
    ordered = [key for key in _PARAM_ORDER if key in params]
    ordered += [key for key in sorted(params) if key not in _PARAM_ORDER]
    return " ".join(f"{key}={params[key]}" for key in ordered)


def _fmt_seconds(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value):.2f}"


def _fmt_ci(ci: Any) -> str:
    if not ci:
        return "-"
    return (
        f"{_fmt_seconds(ci['center'])} "
        f"[{_fmt_seconds(ci['lo'])}, {_fmt_seconds(ci['hi'])}]"
    )


def render_experiment_table(results: Mapping[str, Any]) -> str:
    """Plain-text table of a matrix results dict (``results.json``)."""
    headers = [
        "cell",
        "sweep",
        "params",
        "n",
        "p25",
        "p50",
        "p75",
        "median ci95",
    ]
    rows: List[List[Any]] = []
    for cell in results.get("cells", []):
        quartiles = cell.get("t2a_quartiles") or (None, None, None)
        rows.append(
            [
                cell["index"],
                cell["sweep"],
                _params_label(cell.get("params", {})),
                cell.get("n", 0),
                _fmt_seconds(quartiles[0]),
                _fmt_seconds(quartiles[1]),
                _fmt_seconds(quartiles[2]),
                _fmt_ci(cell.get("median_ci")),
            ]
        )
    title = (
        f"experiment matrix {results.get('spec_name', '?')!r} "
        f"({len(rows)} cells, spec {results.get('spec_sha256', '')[:12]})"
    )
    return title + "\n" + render_table(headers, rows)


def render_experiment_json(results: Mapping[str, Any]) -> str:
    """Canonical JSON of a matrix results dict."""
    return json.dumps(results, indent=2, sort_keys=True)


def experiment_fault_comparison(results: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Pair each t2a cell's fault-plan slice with its baseline.

    Returns one record per (applet, fault_plan != baseline) cell with
    the baseline quartiles of the same applet alongside — the
    "T2A-under-faults next to the Figure 4 baseline" view.
    """
    baselines: Dict[str, Any] = {}
    for cell in results.get("cells", []):
        if cell.get("kind") != "t2a":
            continue
        params = cell.get("params", {})
        if params.get("fault_plan") == "baseline":
            baselines[params.get("applet")] = cell
    comparison: List[Dict[str, Any]] = []
    for cell in results.get("cells", []):
        if cell.get("kind") != "t2a":
            continue
        params = cell.get("params", {})
        if params.get("fault_plan") == "baseline":
            continue
        base = baselines.get(params.get("applet"))
        comparison.append(
            {
                "applet": params.get("applet"),
                "fault_plan": params.get("fault_plan"),
                "quartiles": cell.get("t2a_quartiles"),
                "median_ci": cell.get("median_ci"),
                "baseline_quartiles": base.get("t2a_quartiles") if base else None,
                "baseline_median_ci": base.get("median_ci") if base else None,
            }
        )
    return comparison
