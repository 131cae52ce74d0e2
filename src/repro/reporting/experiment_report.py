"""Render an experiment matrix's aggregated results.

One row per cell — sweep, swept parameters, sample count, T2A
quartiles, and the median confidence interval — grouped by sweep in
cell order, the same order ``results.json`` carries.
"""

from __future__ import annotations

from typing import Any, List, Mapping

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
