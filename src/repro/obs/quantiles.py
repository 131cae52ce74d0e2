"""Streaming quantile estimation in O(1) memory.

The §4 latency analyses need p50/p95/p99 over event streams that, at the
production scale the roadmap targets (millions of simulated users), are
far too large to keep in memory and sort.  This module provides two
classic sketches, both dependency-free and deterministic:

* :class:`QuantileSketch` — the P² algorithm of Jain & Chlamtac (CACM
  1985): each quantile tracked with five markers whose heights are
  adjusted by a piecewise-parabolic interpolation, a dozen floats of
  state per quantile regardless of stream length.  :class:`P2Quantile`
  is its one-quantile case.
* :class:`ReservoirSample` — Vitter's algorithm R: a fixed-capacity
  uniform sample of the stream, from which *any* quantile can be read.
  Mergeable (unlike P²), at the cost of sampling noise.

Error bounds (empirically verified by ``tests/test_obs_quantiles.py``):
for streams of ≥ 2000 observations from smooth distributions (lognormal,
exponential, uniform) — and for adversarially pre-sorted input — the P²
estimate's *rank error* stays within :data:`P2_RANK_ERROR_BOUND`: the
fraction of samples below the estimate differs from the target quantile
by at most 0.05.  Reservoir estimates with capacity ``k`` carry
O(1/sqrt(k)) rank noise; the tests use the same 0.05 bound at k = 1024.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence, Tuple

from repro.simcore.rng import Rng, quantiles as exact_quantiles

#: Documented rank-error bound for the P² sketch (see module docstring).
P2_RANK_ERROR_BOUND = 0.05

#: Quantile points tracked by default (registry histograms use these).
DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class QuantileSketch:
    """P² (piecewise-parabolic) estimates of several quantiles of one stream.

    This is what :class:`~repro.obs.metrics.Histogram` embeds: one
    ``observe`` feeds every tracked quantile, so p50/p95/p99 of a
    million-event latency stream cost a handful of floats each.  The
    histogram feeds it in batches through :meth:`observe_many`.

    Per quantile the algorithm keeps five markers — the minimum, the
    maximum, the target quantile and the two mid-quantiles between them.
    Each observation shifts the markers' desired positions; an interior
    marker whose actual position drifts off by ≥ 1 moves one step and its
    height is re-interpolated.  The outer markers are the stream's
    running min and max at positions 1 and ``count`` whatever the
    quantile, so they are kept once (``_lo``/``_hi``); what is kept per
    quantile is one flat list for the three interior markers::

        [h1, h2, h3,  n1, n2, n3,  d1, d2, d3,  i1, i2, i3]
         heights      positions    desired      desired-position increments

    :meth:`observe_many` is the one place the marker arithmetic lives;
    :meth:`observe` is its one-value case.  It performs the original
    paper's floating-point operations in the paper's order — desired
    positions are *repeated additions*, never ``q * n`` — and each
    quantile's state sees the stream in stream order, so estimates are
    bit-identical to the five-list textbook form fed one value at a time,
    which ``tests/test_obs_quantiles.py`` keeps as its oracle.
    """

    def __init__(self, points: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not points:
            raise ValueError("need at least one quantile point")
        for q in points:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.points = tuple(sorted(points))
        self._count = 0
        self._first: List[float] = []  # the first five observations, sorted
        self._lo = self._hi = 0.0
        self._markers: List[List[float]] = []  # one per point, from the fifth on

    @property
    def count(self) -> int:
        """Number of observations absorbed."""
        return self._count

    def observe(self, value: float) -> None:
        """Absorb one observation into every tracked quantile."""
        self.observe_many((float(value),))

    def observe_many(self, values: Sequence[float]) -> None:
        """Absorb ``values`` (floats, in stream order) into every tracked quantile.

        The same estimates, bit for bit, as :meth:`observe` on each value
        in turn, however a stream is cut into calls.  The update runs
        marker-major: one quantile's twelve floats stay in locals for the
        whole of ``values``, and the running min, max and count the
        interior markers are adjusted against are replayed per quantile.
        """
        count = self._count
        if count < 5:
            # Initialization phase: collect the first five values sorted.
            taken = min(5 - count, len(values))
            for value in values[:taken]:
                insort(self._first, value)
            count = self._count = count + taken
            if count < 5:
                return
            self._lo, h1, h2, h3, self._hi = self._first
            self._markers = [
                [h1, h2, h3, 2.0, 3.0, 4.0,
                 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, q / 2, q, (1 + q) / 2]
                for q in self.points
            ]
            values = values[taken:]
            if not values:
                return
        start_lo, start_hi, start_top = self._lo, self._hi, float(count)
        for marker in self._markers:
            h1, h2, h3, n1, n2, n3, d1, d2, d3, i1, i2, i3 = marker
            lo, hi, top = start_lo, start_hi, start_top
            for value in values:
                if value < lo:
                    lo = value
                elif value >= hi:
                    hi = value
                top += 1.0  # the max marker's position; the min marker's is 1.0
                # Markers above the observation's cell move up one position
                # (ties and ``value >= hi`` land in the cell below).
                if value >= h1:
                    if value >= h2:
                        if not value >= h3:
                            n3 += 1.0
                    else:
                        n2 += 1.0
                        n3 += 1.0
                else:
                    n1 += 1.0
                    n2 += 1.0
                    n3 += 1.0
                d1 += i1
                d2 += i2
                d3 += i3
                # Adjust the three interior markers, in order, if they drifted:
                # the parabolic prediction, or — when it would leave the bracket
                # of its neighbours — linear interpolation toward the neighbour.
                delta = d1 - n1
                if (delta >= 1.0 and n2 - n1 > 1.0) or (delta <= -1.0 and 1.0 - n1 < -1.0):
                    step = 1.0 if delta >= 1.0 else -1.0
                    height = h1 + step / (n2 - 1.0) * (
                        (n1 - 1.0 + step) * (h2 - h1) / (n2 - n1)
                        + (n2 - n1 - step) * (h1 - lo) / (n1 - 1.0)
                    )
                    if not lo < height < h2:
                        height = (
                            h1 + step * (h2 - h1) / (n2 - n1) if step > 0.0
                            else h1 + step * (lo - h1) / (1.0 - n1)
                        )
                    h1 = height
                    n1 += step
                delta = d2 - n2
                if (delta >= 1.0 and n3 - n2 > 1.0) or (delta <= -1.0 and n1 - n2 < -1.0):
                    step = 1.0 if delta >= 1.0 else -1.0
                    height = h2 + step / (n3 - n1) * (
                        (n2 - n1 + step) * (h3 - h2) / (n3 - n2)
                        + (n3 - n2 - step) * (h2 - h1) / (n2 - n1)
                    )
                    if not h1 < height < h3:
                        height = (
                            h2 + step * (h3 - h2) / (n3 - n2) if step > 0.0
                            else h2 + step * (h1 - h2) / (n1 - n2)
                        )
                    h2 = height
                    n2 += step
                delta = d3 - n3
                if (delta >= 1.0 and top - n3 > 1.0) or (delta <= -1.0 and n2 - n3 < -1.0):
                    step = 1.0 if delta >= 1.0 else -1.0
                    height = h3 + step / (top - n2) * (
                        (n3 - n2 + step) * (hi - h3) / (top - n3)
                        + (top - n3 - step) * (h3 - h2) / (n3 - n2)
                    )
                    if not h2 < height < hi:
                        height = (
                            h3 + step * (hi - h3) / (top - n3) if step > 0.0
                            else h3 + step * (h2 - h3) / (n2 - n3)
                        )
                    h3 = height
                    n3 += step
            marker[:9] = (h1, h2, h3, n1, n2, n3, d1, d2, d3)
        self._lo, self._hi = lo, hi
        self._count = count + len(values)

    def quantile(self, q: float) -> float:
        """Estimate for one of the tracked points.

        Exact while fewer than five observations have arrived; raises
        ``ValueError`` on an empty sketch and ``KeyError`` for a point
        that is not tracked.
        """
        try:
            index = self.points.index(q)
        except ValueError:
            raise KeyError(f"quantile {q} is not tracked (have {self.points})") from None
        if not self._first:
            raise ValueError("no observations yet")
        if self._count < 5:
            return exact_quantiles(self._first, [q])[0]
        return self._markers[index][1]

    def values(self) -> Dict[float, float]:
        """All tracked estimates, or an empty dict before any observation."""
        if self._count == 0:
            return {}
        return {q: self.quantile(q) for q in self.points}

    def __repr__(self) -> str:
        return f"<QuantileSketch points={self.points} n={self._count}>"


class P2Quantile(QuantileSketch):
    """The P² estimator for one quantile: a one-point :class:`QuantileSketch`.

    >>> sketch = P2Quantile(0.5)
    >>> for v in range(1, 1001):
    ...     sketch.observe(float(v))
    >>> abs(sketch.value() - 500.5) < 25
    True
    """

    def __init__(self, q: float) -> None:
        super().__init__((q,))
        self.q = q

    def value(self) -> float:
        """Current estimate of the tracked quantile (see :meth:`quantile`)."""
        return self.quantile(self.q)

    def __repr__(self) -> str:
        return f"<P2Quantile q={self.q} n={self._count}>"


class ReservoirSample:
    """Fixed-capacity uniform sample of a stream (Vitter's algorithm R).

    Deterministic given its seed.  Unlike P², two reservoirs can be
    merged, which makes this the sketch of choice for sharded runs.
    """

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = Rng(seed=seed, name="reservoir")
        self._sample: List[float] = []
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations absorbed (not the sample size)."""
        return self._count

    @property
    def sample(self) -> List[float]:
        """A copy of the current sample."""
        return list(self._sample)

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        self._count += 1
        if len(self._sample) < self.capacity:
            self._sample.append(float(value))
            return
        slot = self._rng.randint(0, self._count - 1)
        if slot < self.capacity:
            self._sample[slot] = float(value)

    def quantile(self, q: float) -> float:
        """Estimate any quantile from the sample."""
        if not self._sample:
            raise ValueError("no observations yet")
        return exact_quantiles(self._sample, [q])[0]

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """A new reservoir approximating the union of both streams.

        Items are drawn from the two samples proportionally to the
        stream counts they stand for, so the merge is unbiased.
        """
        merged = ReservoirSample(capacity=self.capacity, seed=self._rng.seed)
        merged._count = self._count + other.count
        pool: List[Tuple[float, float]] = []
        for source in (self, other):
            if not source._sample:
                continue
            weight = source.count / len(source._sample)
            pool.extend((value, weight) for value in source._sample)
        if not pool:
            return merged
        take = min(merged.capacity, len(pool))
        values = [entry[0] for entry in pool]
        weights = [entry[1] for entry in pool]
        for _ in range(take):
            index = merged._rng.weighted_index(weights)
            merged._sample.append(values[index])
            weights[index] = 0.0
            if not any(weights):
                break
        return merged

    def __repr__(self) -> str:
        return f"<ReservoirSample {len(self._sample)}/{self.capacity} n={self._count}>"


def rank_error(values: Sequence[float], estimate: float, q: float) -> float:
    """|empirical CDF(estimate) - q| — the rank error of a quantile estimate.

    This is the metric the documented :data:`P2_RANK_ERROR_BOUND` is
    stated in; the property tests use it because it is scale-free and
    meaningful for arbitrary distributions (unlike relative value error,
    which blows up near zero or on flat regions of the CDF).
    """
    if not values:
        raise ValueError("cannot compute rank error against an empty sample")
    below = sum(1 for v in values if v <= estimate)
    return abs(below / len(values) - q)
