"""``run.py --compare A.json B.json``: is report B worse than report A?

Exits non-zero, naming workload and metric, when an end-to-end timing of
B is worse than A's by more than its bound, or when any simulated
statistic, count or ``sim_fingerprint`` differs at all — a change meant
only to speed the simulator up must leave those identical.  A timing
whose own min-max spread is wider than its bound is reported as
``unresolved`` rather than ``unchanged``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import spec


def _spread(stats: Dict[str, Any]) -> float:
    return (stats["max"] - stats["min"]) / stats["median"] if stats["median"] else 0.0


def _timing_verdict(metric: spec.Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    lower = metric.better == "lower"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if lower else -change
    if worse > metric.bound:
        return "REGRESSED"
    if max(_spread(a), _spread(b)) > metric.bound:
        # Too noisy to call unchanged; an improvement counts only if every
        # run of B beats every run of A.
        clear = b["max"] < a["min"] if lower else b["min"] > a["max"]
        return "improved" if clear else "unresolved"
    return "improved" if -worse > metric.bound else "unchanged"


def compare_reports(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print one line per metric; return the findings that fail the compare."""
    failures: List[str] = []
    for key in ("seed", "scale"):
        if a.get(key) != b.get(key):
            failures.append(f"reports differ in {key}: {a.get(key)} vs {b.get(key)}")
    if failures:
        return failures
    for name, entry_a in a.get("workloads", {}).items():
        entry_b = b.get("workloads", {}).get(name)
        if entry_b is None:
            failures.append(f"{name}: missing from the second report")
            continue
        for metric in spec.END_TO_END:
            stats_a = entry_a["end_to_end"].get(metric.name)
            stats_b = entry_b["end_to_end"].get(metric.name)
            if stats_a is None and stats_b is None:
                continue
            if stats_a is None or stats_b is None:
                failures.append(f"{name} {metric.name}: reported by one side only")
                continue
            if metric.bound is None:
                same = stats_a["median"] == stats_b["median"]
                verdict = "identical" if same else "DIFFERS"
            else:
                verdict = _timing_verdict(metric, stats_a, stats_b)
            print(
                f"{name} {metric.name} {stats_a['median']:.6g} -> "
                f"{stats_b['median']:.6g} {metric.unit} {verdict}"
            )
            if verdict in ("REGRESSED", "DIFFERS"):
                failures.append(
                    f"{name} {metric.name}: {stats_a['median']:.6g} -> "
                    f"{stats_b['median']:.6g} {metric.unit} ({verdict.lower()})"
                )
        for metric, cell_a in entry_a["per_layer"].items():
            cell_b = entry_b["per_layer"].get(metric)
            if cell_b is None or cell_a["unit"] != "count":
                continue
            if cell_a["value"] != cell_b["value"]:
                failures.append(
                    f"{name} {metric}: count {cell_a['value']:g} -> {cell_b['value']:g}"
                )
        for key in ("ops_attempted", "ops_failed", "sim_fingerprint"):
            if entry_a[key] != entry_b[key]:
                failures.append(f"{name} {key}: {entry_a[key]} -> {entry_b[key]}")
    return failures


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    failures = compare_reports(a, b)
    for failure in failures:
        print(f"COMPARE FAILED: {failure}")
    return 1 if failures else 0
