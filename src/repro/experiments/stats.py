"""Dependency-free statistics for the experiment matrix.

Two confidence-interval constructions, both deterministic:

* :func:`mean_confidence_interval` — a Student-t interval over a small
  set of repeat-level statistics (the classic treatment for "n repeat
  runs of the same cell"; critical values are tabulated, no scipy).
* :func:`bootstrap_median_interval` — a seeded percentile bootstrap of
  the median over one pooled sample, for cells that only ran once.

Quartile pooling reuses the P2 streaming sketches of
:mod:`repro.obs.quantiles` (the same estimator the metrics registry's
histograms run), so a cell's reported p25/p50/p75 is computed by the
observability stack's own machinery rather than a second ad-hoc path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.quantiles import QuantileSketch
from repro.simcore.rng import Rng, quantiles as exact_quantiles

#: The quartile points every cell reports (paper tables use p25/p50/p75).
QUARTILE_POINTS = (0.25, 0.5, 0.75)

#: Two-sided Student-t critical values by degrees of freedom (1..30);
#: beyond 30 the normal limit is used.  Rows: confidence level.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
        1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
        1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
        2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ),
}

_NORMAL_LIMIT = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom."""
    if confidence not in _T_TABLE:
        raise ValueError(
            f"confidence must be one of {sorted(_T_TABLE)}, got {confidence}"
        )
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    table = _T_TABLE[confidence]
    if df <= len(table):
        return table[df - 1]
    return _NORMAL_LIMIT[confidence]


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Optional[Tuple[float, float, float]]:
    """``(mean, lo, hi)`` t-interval for the mean of ``values``.

    Returns ``None`` when fewer than two values exist (no dispersion to
    estimate).  A zero-variance sample yields a zero-width interval.
    """
    n = len(values)
    if n < 2:
        return None
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_critical(n - 1, confidence) * (variance / n) ** 0.5
    return (mean, mean - half, mean + half)


def bootstrap_median_interval(
    samples: Sequence[float],
    seed: int,
    resamples: int = 200,
    confidence: float = 0.95,
) -> Optional[Tuple[float, float, float]]:
    """``(median, lo, hi)`` percentile-bootstrap interval of the median.

    Deterministic given ``seed`` (resampling runs on a private
    :class:`~repro.simcore.rng.Rng`).  Returns ``None`` for samples of
    fewer than two observations.
    """
    n = len(samples)
    if n < 2:
        return None
    if confidence not in _NORMAL_LIMIT:
        raise ValueError(
            f"confidence must be one of {sorted(_NORMAL_LIMIT)}, got {confidence}"
        )
    rng = Rng(seed=seed, name="bootstrap")
    medians: List[float] = []
    for _ in range(resamples):
        resample = [samples[rng.randint(0, n - 1)] for _ in range(n)]
        medians.append(exact_quantiles(resample, [0.5])[0])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = exact_quantiles(medians, [alpha, 1.0 - alpha])
    return (exact_quantiles(list(samples), [0.5])[0], lo, hi)


def pooled_quartiles(samples: Sequence[float]) -> Optional[Tuple[float, float, float]]:
    """p25/p50/p75 of a pooled sample via the P2 streaming sketch.

    Mirrors what a registry histogram would report for the same stream
    (exact below five observations, five-marker P2 estimate beyond).
    The three independently-tracked markers can cross by a hair on
    tightly clustered samples, so the estimates are monotone-rearranged
    (sorted) before being returned.  Returns ``None`` for an empty
    sample.
    """
    if not samples:
        return None
    sketch = QuantileSketch(points=QUARTILE_POINTS)
    sketch.observe_many([float(value) for value in samples])
    values = sketch.values()
    return tuple(sorted(values[q] for q in QUARTILE_POINTS))
