"""Rendering and acceptance checks for adaptive-delivery comparisons.

``repro chaos --adaptive`` runs the same scenario twice — once with a
:class:`~repro.engine.delivery.DeliveryPolicy` installed, once with the
plain (non-adaptive) engine — and prints the two runs side by side:
how hard each one hammered the browning-out victim, what the retry and
shed counters did, and whether the adaptive run's poll-interval
distribution returned to the base policy's after the heal (the §4
restoration property).

The same module holds the machine-checkable acceptance criteria
(:func:`adaptive_delivery_violations`) that ``make degrade-check``
enforces: ≥3× victim request-rate drop during a brownout, zero
``overload`` dead letters on healthy services, stretch fully decayed
after heal, and post-heal quartile drift within tolerance.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.reporting.table import render_table

#: Acceptance floor for the brownout request-rate drop (ISSUE 7).
MIN_DROP_RATIO = 3.0
#: Acceptance ceiling for post-heal interval-quartile drift.
MAX_QUARTILE_DRIFT = 0.10


def _phase_mean(result: Any, phase: str) -> float:
    """Mean T2A of one fault phase across every shard (0.0 if none)."""
    values = result.t2a_values(range(result.num_shards), phase)
    return sum(values) / len(values) if values else 0.0


def _fmt_quartiles(quartiles: Optional[Tuple[float, float, float]]) -> str:
    if quartiles is None:
        return "-"
    return "/".join(f"{q:.1f}" for q in quartiles)


def drop_ratio(baseline: Any, adaptive: Any, slug: str) -> float:
    """How many times fewer requests the victim saw with adaptation on.

    Computed from the exact fault-window arrival counts both runs
    sampled; ``inf`` when the adaptive run sent none, 0.0 when the
    window was never measured.
    """
    base = baseline.fault_window_requests.get(slug, 0)
    adap = adaptive.fault_window_requests.get(slug, 0)
    if base == 0:
        return 0.0
    return float("inf") if adap == 0 else base / adap


def render_adaptive_comparison(adaptive: Any, baseline: Any) -> str:
    """A side-by-side table of the adaptive vs plain chaos run."""
    a_stats, b_stats = adaptive.fleet_stats, baseline.fleet_stats
    rows: List[List[Any]] = []
    for slug in sorted(set(adaptive.fault_window_requests) | set(baseline.fault_window_requests)):
        ratio = drop_ratio(baseline, adaptive, slug)
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.1f}x"
        rows.append([
            f"fault-window requests [{slug}]",
            f"{adaptive.fault_window_requests.get(slug, 0)} (drop {ratio_text})",
            baseline.fault_window_requests.get(slug, 0),
        ])
    rows.extend([
        ["poll retries", a_stats["poll_retries"], b_stats["poll_retries"]],
        ["action retries", a_stats["action_retries"], b_stats["action_retries"]],
        ["hints deferred", a_stats.get("delivery_hints_deferred", 0), 0],
        ["hints shed", a_stats.get("delivery_hints_shed", 0), 0],
        ["retries deferred", a_stats.get("delivery_retries_deferred", 0), 0],
        [
            "overload dead letters",
            a_stats.get("delivery_overload_dead_letters", 0),
            0,
        ],
        [
            "stretched poll intervals",
            a_stats.get("delivery_intervals_stretched", 0),
            0,
        ],
        [
            "t2a mean during fault (s)",
            f"{_phase_mean(adaptive, 'during'):.2f}",
            f"{_phase_mean(baseline, 'during'):.2f}",
        ],
        [
            "t2a mean after heal (s)",
            f"{_phase_mean(adaptive, 'after'):.2f}",
            f"{_phase_mean(baseline, 'after'):.2f}",
        ],
    ])
    if adaptive.post_heal_stretch:
        worst = max(adaptive.post_heal_stretch.values())
        rows.append(["post-heal stretch (max)", f"{worst:.2f}", "1.00"])
    rows.append([
        "post-heal interval quartiles (s)",
        _fmt_quartiles(adaptive.post_heal_quartiles),
        _fmt_quartiles(adaptive.baseline_quartiles),
    ])
    if adaptive.post_heal_quartiles is not None:
        rows.append([
            "quartile drift",
            f"{adaptive.post_heal_quartile_drift:.1%}",
            f"<= {MAX_QUARTILE_DRIFT:.0%}",
        ])
    return render_table(["adaptive delivery", "adaptive", "baseline"], rows)


def adaptive_delivery_violations(
    adaptive: Any,
    baseline: Any,
    brownout_services: Iterable[str],
    min_drop_ratio: float = MIN_DROP_RATIO,
    max_quartile_drift: float = MAX_QUARTILE_DRIFT,
) -> List[str]:
    """Every acceptance criterion the adaptive run failed (empty = pass).

    ``brownout_services`` names the victims whose request-rate drop is
    enforced; overload dead letters are checked on every *other*
    (healthy) service, and the stretch-decay and quartile-restoration
    checks apply to the whole run.
    """
    victims = set(brownout_services)
    violations: List[str] = []
    for slug in sorted(victims):
        ratio = drop_ratio(baseline, adaptive, slug)
        if ratio < min_drop_ratio:
            violations.append(
                f"victim {slug}: fault-window request drop {ratio:.2f}x "
                f"< required {min_drop_ratio:g}x"
            )
    for slug, count in sorted(adaptive.overload_dead_letters_by_service.items()):
        if slug not in victims and count:
            violations.append(
                f"healthy service {slug}: {count} overload dead letter(s), expected 0"
            )
    for slug, stretch in sorted(adaptive.post_heal_stretch.items()):
        if stretch > 1.0:
            violations.append(
                f"service {slug}: post-heal stretch {stretch:.2f} did not decay to 1.0"
            )
    drift = adaptive.post_heal_quartile_drift
    if drift > max_quartile_drift:
        violations.append(
            f"post-heal interval quartile drift {drift:.1%} exceeds "
            f"{max_quartile_drift:.0%} (§4 distribution not restored)"
        )
    return violations
