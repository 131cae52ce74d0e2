"""CDF series for the latency figures (4, 5, and 7)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.simcore.rng import quantiles


def cdf_points(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """The empirical CDF as (value, cumulative fraction) steps."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def summarize_latencies(samples: Sequence[float]) -> Dict[str, float]:
    """The summary statistics the paper quotes for latency figures."""
    if not samples:
        raise ValueError("samples must be non-empty")
    q25, q50, q75 = quantiles(samples, (0.25, 0.5, 0.75))
    return {
        "n": float(len(samples)),
        "p25": q25,
        "p50": q50,
        "p75": q75,
        "min": min(samples),
        "max": max(samples),
        "mean": sum(samples) / len(samples),
    }
