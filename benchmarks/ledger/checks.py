"""Correctness checks: invariants of each workload, never goldens.

A legitimate model fix must stay landable, so nothing here compares
against committed numbers; each check is a property the simulation has
to have whatever its exact output.  ``check_workload`` returns the list
of violated invariants (empty = correct); the command fails loudly on
any.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import spec

#: ``fanout_observed`` must land its median T2A this close to the paper's 84 s.
T2A_MEDIAN_TOLERANCE = 0.10
#: ...and deliver at least this share of ``publications x applets`` actions.
MIN_DELIVERED_SHARE = 0.95
MAX_UNATTRIBUTED_PCT = 10.0


def _check_repeat(workload: str, repeat: Dict[str, Any]) -> List[str]:
    facts, metrics, counts = repeat["facts"], repeat["end_to_end"], repeat["counts"]
    size = repeat["size"]
    failures: List[str] = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    require(
        all(residual == 0 for residual in facts["shard_residuals"]),
        f"conservation residual per shard {facts['shard_residuals']} != 0",
    )
    require(
        counts["engine.conservation_residual"] == 0,
        f"merged conservation residual {counts['engine.conservation_residual']} != 0",
    )
    if workload in ("fleet_poll", "fleet_sharded"):
        require(facts["applets"] == size, f"{facts['applets']} applets installed, not {size}")
        require(
            facts["polls_sent_total"] >= size,
            f"polls_sent {facts['polls_sent_total']} < {size} applets",
        )
        require(
            facts["actions_executed"] == 0 and facts["actions_dispatched_total"] == 0,
            "actions fired in a workload that publishes nothing",
        )
    if workload == "fanout_push":
        expected = size * spec.PUBLICATIONS
        require(
            facts["actions_executed"] == expected,
            f"actions_executed {facts['actions_executed']} != {expected}",
        )
    if workload == "fanout_observed":
        require(
            facts["actions_dispatched_total"] == facts["actions_delivered_total"],
            f"dispatched {facts['actions_dispatched_total']} != "
            f"delivered {facts['actions_delivered_total']}",
        )
        floor = MIN_DELIVERED_SHARE * size * spec.PUBLICATIONS
        require(
            facts["actions_executed"] >= floor,
            f"actions_executed {facts['actions_executed']} < {floor:.0f}",
        )
        require(counts["obs.series"] > 0, "metrics snapshot is empty")
        require(counts["obs.trace_records"] > 0, "trace is empty")
        paper_median = spec.PAPER_T2A_QUARTILES[1]
        median = metrics.get("t2a_p50_sim_s", 0.0)
        require(
            abs(median - paper_median) <= T2A_MEDIAN_TOLERANCE * paper_median,
            f"T2A median {median:.1f} sim-s not within "
            f"{T2A_MEDIAN_TOLERANCE:.0%} of {paper_median:.0f}",
        )
    if workload == "chaos_storm":
        require(
            facts["silently_lost"] == 0,
            f"actions_silently_lost {facts['silently_lost']} != 0",
        )
        require(
            facts["faults_activated"] == facts["faults_deactivated"]
            and facts["faults_activated"] >= facts["faults_planned"] > 0,
            f"faults activated/deactivated/planned "
            f"{facts['faults_activated']}/{facts['faults_deactivated']}/"
            f"{facts['faults_planned']}",
        )
        require(metrics["failed_ops_pct"] > 0, "no simulated failure under the fault plan")
    else:
        require(
            metrics["failed_ops_pct"] == 0,
            f"failed_ops_pct {metrics['failed_ops_pct']} on a fault-free workload",
        )
    for metric in spec.END_TO_END:
        defined = metric.workloads is None or workload in metric.workloads
        require(
            (metric.name in metrics) == defined,
            f"{metric.name} {'missing' if defined else 'reported where undefined'}",
        )
    return failures


def check_workload(
    workload: str,
    repeats: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Every violated invariant over a workload's repeats and traced run."""
    failures: List[str] = []
    runs = repeats + ([traced] if traced is not None else [])
    for index, run in enumerate(runs):
        label = "traced run" if run is traced else f"repeat {index}"
        failures.extend(f"{label}: {failure}" for failure in _check_repeat(workload, run))
    fingerprints = {run["sim_fingerprint"] for run in runs}
    if len(fingerprints) != 1:
        failures.append(
            f"{len(fingerprints)} distinct sim_fingerprints over {len(runs)} runs "
            "of one seed: the simulation is not deterministic, or tracing changed it"
        )
    if traced is not None:
        loose = traced["trace"]["metrics"]["trace.unattributed_pct"]
        if loose > MAX_UNATTRIBUTED_PCT:
            failures.append(
                f"trace.unattributed_pct {loose:.1f} > {MAX_UNATTRIBUTED_PCT:.0f}"
            )
    return failures
