"""The quantiles a histogram reports, read from its buckets.

A :class:`~repro.obs.metrics.Histogram` keeps bucket counts, count, sum,
min and max, and every quantile it reports — ``quantile(q)``, a
snapshot's ``quantiles``, a merged snapshot's — is one estimator over
those: the exact :func:`~repro.simcore.rng.quantiles` of the sample the
buckets describe, each bucket's samples spread evenly over its span.

The first three classes are the properties the P² sketch that the
bucket estimator replaced was held to, under the names they had; each
property that still means something is held by the bucket estimator, at
the same or a tighter bound.  ``TestBucketQuantiles`` pins what P² could
not promise: merging is exact, and an estimate lies in the exact
quantile's bucket or a neighbour, whatever the stream.
"""

import json
from bisect import bisect_left
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    QUANTILES,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.simcore.rng import Rng, quantiles as exact_quantiles

SEEDS = (7, 21, 1234)
N = 3000
#: Rank error of an estimate: how far the share of samples below it is
#: from ``q`` (the P² sketch was held to this bound).
RANK_ERROR_BOUND = 0.05


def _stream(kind: str, seed: int, n: int = N):
    """Deterministic sample streams, one of them pre-sorted."""
    rng = Rng(seed=seed, name=f"stream-{kind}")
    if kind == "lognormal":
        return [rng.lognormal_median(90.0, 0.5) for _ in range(n)]
    if kind == "exponential":
        return [rng.exponential(15.0) for _ in range(n)]
    if kind == "uniform":
        return [rng.uniform(0.0, 500.0) for _ in range(n)]
    if kind == "sorted":
        return sorted(rng.lognormal_median(90.0, 0.5) for _ in range(n))
    raise ValueError(kind)


DISTRIBUTIONS = ("lognormal", "exponential", "uniform", "sorted")


def _histogram(values: Sequence[float], bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    histogram = Histogram("h", {}, bounds=bounds)
    for value in values:
        histogram.observe(value)
    return histogram


def rank_error(values: Sequence[float], estimate: float, q: float) -> float:
    below = sum(1 for value in values if value < estimate)
    return abs(below / len(values) - q)


class TestP2Properties:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    @pytest.mark.parametrize("q", QUANTILES)
    def test_rank_error_within_documented_bound(self, dist, q):
        for seed in SEEDS:
            values = _stream(dist, seed)
            err = rank_error(values, _histogram(values).quantile(q), q)
            assert err <= RANK_ERROR_BOUND, (
                f"{dist} seed={seed} q={q}: rank error {err:.4f} exceeds {RANK_ERROR_BOUND}"
            )

    @pytest.mark.parametrize("q", QUANTILES)
    def test_close_to_exact_quantiles_on_lognormal(self, q):
        # Within 8 % of the exact quantile (P² was held to 10 %; the
        # layout's edges are 12.2 % apart).
        for seed in SEEDS:
            values = _stream("lognormal", seed)
            exact = exact_quantiles(values, [q])[0]
            assert _histogram(values).quantile(q) == pytest.approx(exact, rel=0.08)

    def test_estimate_stays_within_observed_range(self):
        for seed in SEEDS:
            values = _stream("exponential", seed)
            histogram = _histogram(values)
            for q in (0.0, 0.5, 0.95, 1.0):
                assert min(values) <= histogram.quantile(q) <= max(values)

    def test_empty_sketch_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Histogram("h", {}).quantile(0.5)

    def test_invalid_quantile_rejected(self):
        histogram = _histogram([1.0, 2.0])
        for bad in (-0.2, 1.5, float("nan")):
            with pytest.raises(ValueError):
                histogram.quantile(bad)

    def test_constant_stream_is_exact(self):
        histogram = _histogram([42.0] * 500)
        assert [histogram.quantile(q) for q in (0.0, 0.9, 1.0)] == [42.0] * 3

    def test_deterministic_for_identical_streams(self):
        values = _stream("lognormal", 7)
        assert _histogram(values).quantile(0.95) == _histogram(values).quantile(0.95)


class TestQuantileSketch:
    def test_tracks_all_points_with_one_observe(self):
        values = _stream("uniform", 21)
        estimates = _histogram(values).snapshot()["quantiles"]
        assert list(estimates) == [str(q) for q in QUANTILES]
        for q in QUANTILES:
            assert rank_error(values, estimates[str(q)], q) <= RANK_ERROR_BOUND
        # Quantile estimates must be monotone in q.
        ordered = list(estimates.values())
        assert ordered == sorted(ordered)

    def test_empty_values_dict(self):
        snapshot = Histogram("h", {}).snapshot()
        assert snapshot["quantiles"] == {}
        assert snapshot["count"] == 0 and snapshot["min"] is None and snapshot["max"] is None


# -- the histogram against textbook computations over the kept sample ------------


class TextbookHistogram:
    """A histogram that keeps every sample: a hand-rolled bucket bisect,
    ``min``/``max`` builtins, and quantiles that are
    :func:`~repro.simcore.rng.quantiles` of the sample the buckets
    describe, built out bucket by bucket — snapshot shape included."""

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def bucket_counts(self) -> List[int]:
        counts = [0] * (len(self.bounds) + 1)
        for value in self.samples:
            lo, hi = 0, len(self.bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= self.bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            counts[lo] += 1
        return counts

    def described(self) -> List[float]:
        """Each bucket's count spread evenly over its span, clamped to
        the sample's min and max."""
        low, high = min(self.samples), max(self.samples)
        edges = [low, *self.bounds, high]
        spread = []
        for index, count in enumerate(self.bucket_counts()):
            lo, hi = max(edges[index], low), min(edges[index + 1], high)
            spread.extend(min(hi, lo + (hi - lo) * (place + 0.5) / count) for place in range(count))
        return spread

    def snapshot(self) -> dict:
        total = 0.0
        for value in self.samples:
            total += value
        return {
            "type": "histogram", "name": "h", "labels": {},
            "count": len(self.samples), "sum": total,
            "min": min(self.samples, default=None), "max": max(self.samples, default=None),
            "bounds": list(self.bounds), "bucket_counts": self.bucket_counts(),
            "quantiles": dict(zip(
                map(str, QUANTILES), exact_quantiles(self.described(), QUANTILES)
            )) if self.samples else {},
        }


def _kernel_stream(kind: str, seed: int, n: int) -> list:
    """The stream shapes the registry actually sees, plus the adversarial ones."""
    rng = Rng(seed=seed, name=f"kernel-{kind}")
    if kind == "lognormal":      # latencies
        return [rng.lognormal_median(90.0, 0.5) for _ in range(n)]
    if kind == "bimodal":        # hinted ≈ 0.2 s against polled ≈ 25 s
        return [rng.lognormal_median(rng.choice((0.2, 25.0)), 0.3) for _ in range(n)]
    if kind == "ties":           # ``len(events)``: small ints, observed as ints
        return [rng.choice((0, 0, 0, 1, 1, 2, 3, 5, 20)) for _ in range(n)]
    if kind == "sorted":
        return sorted(rng.lognormal_median(15.0, 1.0) for _ in range(n))
    if kind == "reverse_sorted":
        return sorted((rng.lognormal_median(15.0, 1.0) for _ in range(n)), reverse=True)
    if kind == "constant":
        return [3.0] * n
    raise ValueError(kind)


KERNEL_STREAMS = ("lognormal", "bimodal", "ties", "sorted", "reverse_sorted", "constant")
LENGTHS = st.one_of(st.integers(0, 7), st.integers(200, 2600))
LAYOUTS = st.sampled_from((DEFAULT_BUCKETS, COUNT_BUCKETS))


class TestKernelMatchesTextbook:
    @given(kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16), n=LENGTHS,
           bounds=LAYOUTS)
    @settings(max_examples=40, deadline=None)
    def test_histogram_snapshot_is_byte_identical(self, kind, seed, n, bounds):
        stream = _kernel_stream(kind, seed, n)
        histogram, oracle = Histogram("h", {}, bounds=bounds), TextbookHistogram(bounds)

        def same() -> bool:
            return json.dumps(histogram.snapshot(), sort_keys=True) == json.dumps(
                oracle.snapshot(), sort_keys=True
            )

        assert same()
        for index, value in enumerate(stream):
            histogram.observe(value)
            oracle.observe(value)
            if index < 20:
                assert same(), (kind, seed, index)
        assert same(), (kind, seed, n)
        if n:
            assert histogram.quantile(0.25) == exact_quantiles(oracle.described(), [0.25])[0]

    def test_int_samples_snapshot_as_floats(self):
        # ``len(events)`` is observed as an int; ``"min": 0`` would not be
        # the byte the snapshots have always carried (``"min": 0.0``)
        histogram = _histogram((0, 3, 1, 0, 2, 7, 0), COUNT_BUCKETS)
        snapshot = histogram.snapshot()
        assert '"min": 0.0' in json.dumps(snapshot) and '"max": 7.0' in json.dumps(snapshot)
        assert all(isinstance(v, float) for v in snapshot["quantiles"].values())

    def test_contract_edges(self):
        for bad in ((), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match="strictly increasing"):
                Histogram("h", {}, bounds=bad)
        histogram = Histogram("h", {}, bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="empty"):
            histogram.quantile(0.5)
        histogram.observe(1.5)
        assert histogram.quantile(0.0) == histogram.quantile(1.0) == 1.5  # one sample: exact


# -- what the bucket estimator promises that P² could not ------------------------


def _cut_streams(stream: Sequence[float], cuts: Sequence[int], parts: int) -> List[List[float]]:
    """``stream`` cut at ``cuts``, the pieces dealt round-robin to ``parts`` lists."""
    pieces, done = [], 0
    for cut in sorted(cuts) + [len(stream)]:
        pieces.append(list(stream[done:cut]))
        done = cut
    dealt: List[List[float]] = [[] for _ in range(parts)]
    for index, piece in enumerate(pieces):
        dealt[index % parts].extend(piece)
    return dealt


def _bucket(bounds: Sequence[float], value: float) -> int:
    return bisect_left(bounds, value)


class TestBucketQuantiles:
    @given(
        kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16),
        n=st.integers(1, 1500), bounds=LAYOUTS, parts=st.integers(1, 5),
        cuts=st.lists(st.integers(0, 1500), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_one_registry_fed_the_whole_stream(
        self, kind, seed, n, bounds, parts, cuts
    ):
        stream = _kernel_stream(kind, seed, n)
        whole = MetricsRegistry()
        for value in stream:
            whole.histogram("lat", bounds=bounds).observe(value)
        shards = []
        for share in _cut_streams(stream, [cut for cut in cuts if cut <= n], parts):
            registry = MetricsRegistry()
            for value in share:
                registry.histogram("lat", bounds=bounds).observe(value)
            shards.append(registry.snapshot())
        (merged,) = merge_snapshots(*shards)["metrics"]
        (single,) = whole.snapshot()["metrics"]
        for field in ("count", "min", "max", "bounds", "bucket_counts", "quantiles"):
            assert merged[field] == single[field], field
        # Merging re-associates the float additions of ``sum``.
        assert merged["sum"] == pytest.approx(single["sum"], rel=1e-9, abs=1e-12)

    #: Each stream kind on the layout its values are recorded on; every
    #: sample lies where the layout's buckets are a ratio (seconds) or
    #: unit-width (counts), which is where the neighbour bound holds.
    LAYOUT_OF = {
        "lognormal": DEFAULT_BUCKETS, "bimodal": DEFAULT_BUCKETS, "sorted": DEFAULT_BUCKETS,
        "reverse_sorted": DEFAULT_BUCKETS, "ties": COUNT_BUCKETS,
    }

    @given(
        kind=st.sampled_from(sorted(LAYOUT_OF)), seed=st.integers(0, 2**16),
        n=st.integers(1, 2500), q=st.one_of(st.sampled_from(QUANTILES), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_is_in_the_exact_quantiles_bucket_or_a_neighbour(self, kind, seed, n, q):
        bounds = self.LAYOUT_OF[kind]
        stream = _kernel_stream(kind, seed, n)
        estimate = _histogram(stream, bounds).quantile(q)
        exact = exact_quantiles(stream, [q])[0]
        assert abs(_bucket(bounds, estimate) - _bucket(bounds, exact)) <= 1, (estimate, exact)

    def test_the_bimodal_median_is_read_where_it_is(self):
        # Hinted deliveries ≈ 0.2 s against polled ≈ 25 s, 60/40: the P²
        # sketch read this median as seconds where it is ≈ 0.2 s.
        rng = Rng(seed=7, name="bimodal")
        stream = [rng.lognormal_median(0.2 if rng.random() < 0.6 else 25.0, 0.3)
                  for _ in range(4000)]
        exact = exact_quantiles(stream, [0.5])[0]
        assert _histogram(stream).quantile(0.5) == pytest.approx(exact, rel=0.08)
