"""Property-based accuracy tests for the streaming-quantile sketches.

The accuracy properties are driven by the seeded
:class:`~repro.simcore.rng.Rng`: each is checked across a grid of
seeds, distributions, and quantile points, asserting the sketch stays
within the error bounds documented in ``repro.obs.quantiles`` — rank
error at most :data:`~repro.obs.quantiles.P2_RANK_ERROR_BOUND` against
the exact :func:`~repro.simcore.rng.quantiles` of the same sample.

The production P² code is one kernel over flat per-point state
(``QuantileSketch.observe_many``, which a histogram feeds in batches).
:class:`TextbookP2` below is the five-list implementation straight from
Jain & Chlamtac that it replaced, kept here as the oracle fed one sample
at a time: ``TestKernelMatchesTextbook`` feeds both the same streams and
requires *bit-identical* estimates and byte-identical histogram
snapshots after every sample, at arbitrary read points and however the
stream is cut into batches — every committed snapshot and
``sim_fingerprint`` hashes those floats.
"""

import json
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Histogram,
    P2Quantile,
    P2_RANK_ERROR_BOUND,
    QuantileSketch,
    ReservoirSample,
    rank_error,
)
from repro.simcore.rng import Rng, quantiles as exact_quantiles

QUANTILE_POINTS = (0.5, 0.9, 0.95, 0.99)
SEEDS = (7, 21, 1234)
N = 3000


def _stream(kind: str, seed: int, n: int = N):
    """Deterministic sample streams, including adversarial orderings."""
    rng = Rng(seed=seed, name=f"stream-{kind}")
    if kind == "lognormal":
        return [rng.lognormal_median(90.0, 0.5) for _ in range(n)]
    if kind == "exponential":
        return [rng.exponential(15.0) for _ in range(n)]
    if kind == "uniform":
        return [rng.uniform(0.0, 500.0) for _ in range(n)]
    if kind == "sorted":
        return sorted(rng.lognormal_median(90.0, 0.5) for _ in range(n))
    if kind == "reverse_sorted":
        return sorted((rng.exponential(15.0) for _ in range(n)), reverse=True)
    raise ValueError(kind)


DISTRIBUTIONS = ("lognormal", "exponential", "uniform", "sorted")


class TestP2Properties:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    @pytest.mark.parametrize("q", QUANTILE_POINTS)
    def test_rank_error_within_documented_bound(self, dist, q):
        for seed in SEEDS:
            values = _stream(dist, seed)
            sketch = P2Quantile(q)
            for v in values:
                sketch.observe(v)
            err = rank_error(values, sketch.value(), q)
            assert err <= P2_RANK_ERROR_BOUND, (
                f"{dist} seed={seed} q={q}: rank error {err:.4f} "
                f"exceeds {P2_RANK_ERROR_BOUND}"
            )

    @pytest.mark.parametrize("q", QUANTILE_POINTS)
    def test_close_to_exact_quantiles_on_lognormal(self, q):
        # Value-space check on a smooth distribution: within 10% of the
        # exact linear-interpolation quantile at n=3000.
        for seed in SEEDS:
            values = _stream("lognormal", seed)
            sketch = P2Quantile(q)
            for v in values:
                sketch.observe(v)
            exact = exact_quantiles(values, [q])[0]
            assert sketch.value() == pytest.approx(exact, rel=0.10)

    def test_reverse_sorted_is_a_known_weakness(self):
        # P2's five markers are seeded from the first five observations;
        # on a strictly DECREASING stream those are the largest values and
        # low/mid quantile markers never fully recover (rank error can
        # reach ~0.7).  The estimate still stays inside the observed
        # range, and the order-insensitive reservoir sketch holds the
        # documented bound on the very same stream — which is why the
        # registry keeps both.
        for seed in SEEDS:
            values = _stream("reverse_sorted", seed)
            p2 = P2Quantile(0.5)
            reservoir = ReservoirSample(capacity=1024, seed=seed)
            for v in values:
                p2.observe(v)
                reservoir.observe(v)
            assert min(values) <= p2.value() <= max(values)
            assert rank_error(values, reservoir.quantile(0.5), 0.5) <= (
                P2_RANK_ERROR_BOUND
            )

    def test_estimate_stays_within_observed_range(self):
        for seed in SEEDS:
            values = _stream("exponential", seed)
            sketch = P2Quantile(0.95)
            for v in values:
                sketch.observe(v)
            assert min(values) <= sketch.value() <= max(values)

    def test_exact_below_five_observations(self):
        sketch = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            sketch.observe(v)
        assert sketch.value() == pytest.approx(2.0)

    def test_empty_sketch_raises(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_invalid_quantile_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(bad)

    def test_constant_stream_is_exact(self):
        sketch = P2Quantile(0.9)
        for _ in range(500):
            sketch.observe(42.0)
        assert sketch.value() == pytest.approx(42.0)

    def test_deterministic_for_identical_streams(self):
        values = _stream("lognormal", 7)
        first, second = P2Quantile(0.95), P2Quantile(0.95)
        for v in values:
            first.observe(v)
            second.observe(v)
        assert first.value() == second.value()


class TestQuantileSketch:
    def test_tracks_all_points_with_one_observe(self):
        values = _stream("uniform", 21)
        sketch = QuantileSketch(QUANTILE_POINTS)
        for v in values:
            sketch.observe(v)
        estimates = sketch.values()
        assert set(estimates) == set(QUANTILE_POINTS)
        for q, estimate in estimates.items():
            assert rank_error(values, estimate, q) <= P2_RANK_ERROR_BOUND
        # Quantile estimates must be monotone in q.
        ordered = [estimates[q] for q in sorted(estimates)]
        assert ordered == sorted(ordered)

    def test_untracked_point_raises(self):
        sketch = QuantileSketch((0.5,))
        sketch.observe(1.0)
        with pytest.raises(KeyError):
            sketch.quantile(0.99)

    def test_empty_values_dict(self):
        assert QuantileSketch().values() == {}


class TestReservoir:
    @pytest.mark.parametrize("dist", ("lognormal", "sorted"))
    def test_rank_error_within_bound_at_1024(self, dist):
        for seed in SEEDS:
            values = _stream(dist, seed)
            reservoir = ReservoirSample(capacity=1024, seed=seed)
            for v in values:
                reservoir.observe(v)
            for q in QUANTILE_POINTS:
                assert rank_error(values, reservoir.quantile(q), q) <= 0.05

    def test_small_streams_kept_exactly(self):
        reservoir = ReservoirSample(capacity=100, seed=1)
        values = [float(v) for v in range(50)]
        for v in values:
            reservoir.observe(v)
        assert sorted(reservoir.sample) == values
        assert reservoir.count == 50

    def test_merge_counts_and_capacity(self):
        a = ReservoirSample(capacity=64, seed=1)
        b = ReservoirSample(capacity=64, seed=2)
        for v in _stream("exponential", 7, n=500):
            a.observe(v)
        for v in _stream("uniform", 8, n=700):
            b.observe(v)
        merged = a.merge(b)
        assert merged.count == 1200
        assert len(merged.sample) <= merged.capacity

    def test_merged_quantiles_reflect_union(self):
        # Two disjoint ranges: the median of the union must land between
        # them, not inside either input's bulk.
        low = ReservoirSample(capacity=256, seed=3)
        high = ReservoirSample(capacity=256, seed=4)
        for v in range(1000):
            low.observe(float(v % 10))          # values in [0, 10)
            high.observe(1000.0 + float(v % 10))  # values in [1000, 1010)
        merged = low.merge(high)
        assert 5.0 <= merged.quantile(0.5) <= 1005.0
        assert merged.quantile(0.05) < 10.0
        assert merged.quantile(0.95) > 1000.0


# -- the fused kernel against the textbook implementation ------------------------


class TextbookP2:
    """P² for one quantile, as published: five markers in parallel lists.

    The reference implementation (this *was* ``repro.obs.P2Quantile``):
    heights, actual positions, desired positions and their increments as
    four five-element sequences, one ``_parabolic`` / ``_linear`` call
    per adjusted marker.  Do not optimise it — it is what the production
    kernel must reproduce bit for bit.
    """

    def __init__(self, q: float) -> None:
        self.q = q
        self._count = 0
        self._heights: List[float] = []
        self._positions: List[float] = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired: List[float] = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments: Tuple[float, ...] = (0.0, q / 2, q, (1 + q) / 2, 1.0)

    def observe(self, value: float) -> None:
        self._count += 1
        if len(self._heights) < 5:
            self._heights.append(float(value))
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = float(value)
            cell = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        if not self._heights:
            raise ValueError("no observations yet")
        if self._count < 5:
            return exact_quantiles(self._heights, [self.q])[0]
        return self._heights[2]


class TextbookHistogram:
    """``Histogram`` as it was: a hand-rolled bucket bisect, ``min``/``max``
    builtins, and a bank of :class:`TextbookP2` — snapshot shape included."""

    def __init__(self, bounds: Sequence[float], points: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = self.max = None
        self.sketches = {q: TextbookP2(q) for q in sorted(points)}

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for sketch in self.sketches.values():
            sketch.observe(value)

    def snapshot(self) -> dict:
        return {
            "type": "histogram", "name": "h", "labels": {},
            "count": self.count, "sum": self.total, "min": self.min, "max": self.max,
            "bounds": list(self.bounds), "bucket_counts": list(self.bucket_counts),
            "quantiles": {
                str(q): sketch.value() for q, sketch in self.sketches.items()
            } if self.count else {},
        }


def _kernel_stream(kind: str, seed: int, n: int) -> list:
    """The stream shapes the registry actually sees, plus the adversarial ones."""
    rng = Rng(seed=seed, name=f"kernel-{kind}")
    if kind == "lognormal":      # latencies
        return [rng.lognormal_median(90.0, 0.5) for _ in range(n)]
    if kind == "ties":           # ``len(events)``: small ints, observed as ints
        return [rng.choice((0, 0, 0, 1, 1, 2, 3, 5, 50)) for _ in range(n)]
    if kind == "sorted":
        return sorted(rng.exponential(15.0) for _ in range(n))
    if kind == "reverse_sorted":
        return sorted((rng.exponential(15.0) for _ in range(n)), reverse=True)
    if kind == "constant":
        return [3.0] * n
    raise ValueError(kind)


KERNEL_STREAMS = ("lognormal", "ties", "sorted", "reverse_sorted", "constant")
POINT_SETS = st.lists(
    st.sampled_from((0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)),
    min_size=1, max_size=4, unique=True,
)
#: Short streams exercise the exact-quantile fallback and the fifth-sample
#: hand-over; long ones every adjustment branch, thousands of times.
LENGTHS = st.one_of(st.integers(0, 7), st.integers(2000, 2600))


class TestKernelMatchesTextbook:
    @given(
        kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16),
        n=LENGTHS, points=POINT_SETS,
    )
    @settings(max_examples=60, deadline=None)
    def test_sketch_is_bit_identical_after_every_sample(self, kind, seed, n, points):
        stream = _kernel_stream(kind, seed, n)
        sketch = QuantileSketch(points)
        singles = {q: P2Quantile(q) for q in points}
        oracles = {q: TextbookP2(q) for q in points}
        assert sketch.values() == {}
        for index, value in enumerate(stream):
            sketch.observe(value)
            for q in points:
                singles[q].observe(value)
                oracles[q].observe(value)
            if index < 200 or index == n - 1:
                want = {q: oracles[q].value() for q in sorted(points)}
                # ``==`` on floats, on purpose: not approx
                assert sketch.values() == want, (kind, seed, index)
                assert {q: singles[q].value() for q in sorted(points)} == want
                assert all(sketch.quantile(q) == want[q] for q in points)
        assert sketch.count == n
        assert all(single.count == n for single in singles.values())

    @given(
        kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16),
        n=LENGTHS, points=POINT_SETS,
        bounds=st.sampled_from((DEFAULT_BUCKETS, COUNT_BUCKETS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_snapshot_is_byte_identical(self, kind, seed, n, points, bounds):
        stream = _kernel_stream(kind, seed, n)
        histogram = Histogram("h", {}, bounds=bounds, quantile_points=points)
        oracle = TextbookHistogram(bounds, points)

        def same() -> bool:
            return json.dumps(histogram.snapshot(), sort_keys=True) == json.dumps(
                oracle.snapshot(), sort_keys=True
            )

        assert same()
        for index, value in enumerate(stream):
            histogram.observe(value)
            oracle.observe(value)
            if index < 200:
                assert same(), (kind, seed, index)
        assert same(), (kind, seed, n)

    @given(
        kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16),
        n=LENGTHS, points=POINT_SETS,
        bounds=st.sampled_from((DEFAULT_BUCKETS, COUNT_BUCKETS)), data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_reads_between_folds_match_textbook(
        self, kind, seed, n, points, bounds, data
    ):
        # A read folds whatever is pending, wherever it lands relative to
        # the FOLD_BATCH boundaries; no read may change what later reads see.
        stream = _kernel_stream(kind, seed, n)
        reads = set(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=24)))
        histogram = Histogram("h", {}, bounds=bounds, quantile_points=points)
        oracle = TextbookHistogram(bounds, points)
        for index, value in enumerate(stream):
            histogram.observe(value)
            oracle.observe(value)
            if index not in reads:
                continue
            read = data.draw(st.sampled_from(("snapshot", "count", "quantile")))
            if read == "snapshot":
                assert json.dumps(histogram.snapshot(), sort_keys=True) == json.dumps(
                    oracle.snapshot(), sort_keys=True
                ), (kind, seed, index)
            elif read == "count":
                assert histogram.count == oracle.count == index + 1
            else:
                q = data.draw(st.sampled_from(sorted(points)))
                assert histogram.quantile(q) == oracle.sketches[q].value(), (kind, seed, index)
        assert json.dumps(histogram.snapshot(), sort_keys=True) == json.dumps(
            oracle.snapshot(), sort_keys=True
        ), (kind, seed, n)

    @given(
        kind=st.sampled_from(KERNEL_STREAMS), seed=st.integers(0, 2**16),
        n=LENGTHS, points=POINT_SETS, data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_observe_many_is_bit_identical_however_the_stream_is_cut(
        self, kind, seed, n, points, data
    ):
        stream = [float(value) for value in _kernel_stream(kind, seed, n)]
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=12)))  # repeats: empty chunks
        sketch = QuantileSketch(points)
        oracles = {q: TextbookP2(q) for q in points}
        done = 0
        for cut in cuts + [n]:
            chunk = stream[done:cut]
            sketch.observe_many(chunk)
            for value in chunk:
                for oracle in oracles.values():
                    oracle.observe(value)
            done = cut
            assert sketch.count == done
            if done:
                want = {q: oracles[q].value() for q in sorted(points)}
                assert sketch.values() == want, (kind, seed, cuts, done)

    def test_int_samples_snapshot_as_floats(self):
        # ``len(events)`` is observed as an int; ``"min": 0`` would not be
        # the byte the snapshots have always carried (``"min": 0.0``)
        histogram = Histogram("h", {}, bounds=COUNT_BUCKETS)
        for value in (0, 3, 1, 0, 2, 7, 0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert '"min": 0.0' in json.dumps(snapshot) and '"max": 7.0' in json.dumps(snapshot)
        assert all(isinstance(v, float) for v in snapshot["quantiles"].values())

    def test_ties_and_new_maximum_land_in_the_cell_below(self):
        # value == a marker height, and value >= the max marker: the
        # textbook's ``>=`` scans put both in the lower cell
        for stream in ([1, 2, 3, 4, 5, 3, 3, 5, 5, 9, 2, 2, 1, 1, 0],
                       [5, 5, 5, 5, 5, 5, 4, 6, 5, 5]):
            sketch, oracle = P2Quantile(0.5), TextbookP2(0.5)
            for value in stream:
                sketch.observe(value)
                oracle.observe(value)
                assert sketch.value() == oracle.value()

    def test_contract_edges(self):
        with pytest.raises(ValueError):
            QuantileSketch(()).observe(1.0)
        with pytest.raises(ValueError):
            QuantileSketch((0.5, 1.0))
        with pytest.raises(ValueError):
            QuantileSketch((0.5,)).quantile(0.5)      # empty
        sketch = QuantileSketch((0.5,))
        sketch.observe(1.0)
        with pytest.raises(KeyError):
            sketch.quantile(0.9)                      # untracked
        assert sketch.points == (0.5,) and P2Quantile(0.9).q == 0.9
