"""Unit tests for the repro.obs metrics registry.

Counter/Gauge/Histogram semantics, label handling, snapshot/merge
commutativity, and the JSON-lines export round trip.
"""

import json
import pickle
import re
import tracemalloc

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_from_json_lines,
    snapshot_to_json_lines,
)
from repro.obs import metrics as metrics_module
from repro.obs.metrics import FOLD_BATCH
from repro.simcore.rng import Rng

#: What no level and no sample may be: each would poison its series.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("polls")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("polls")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_name_same_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("polls", service="hue").inc()
        registry.counter("polls", service="hue").inc()
        assert registry.value("polls", service="hue") == 2

    def test_labels_partition_the_series(self):
        registry = MetricsRegistry()
        registry.counter("polls", service="hue").inc()
        registry.counter("polls", service="wemo").inc(2)
        assert registry.value("polls", service="hue") == 1
        assert registry.value("polls", service="wemo") == 2
        assert registry.total("polls") == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        assert registry.counter("x", b=2, a=1).value == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_bounds_conflict_raises(self):
        # used to keep the first bounds silently, while merge_snapshots
        # refuses the same mismatch; a site that holds its instrument
        # would never have noticed
        registry = MetricsRegistry()
        sizes = registry.histogram("batch", bounds=COUNT_BUCKETS, service="hue")
        assert registry.histogram("batch", bounds=list(COUNT_BUCKETS), service="hue") is sizes
        with pytest.raises(ValueError, match="'batch'.*bounds"):
            registry.histogram("batch", service="hue")
        with pytest.raises(ValueError, match="'s.batch'"):
            scope = registry.scoped("s")
            scope.histogram("batch", bounds=(1, 2))
            scope.histogram("batch", bounds=(1, 2, 3))
        registry.histogram("batch", service="wemo")  # another series: its own bounds


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.add(-3.5)
        assert gauge.value == 6.5

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_a_non_finite_level_naming_series_and_value(self, bad):
        gauge = MetricsRegistry().gauge("depth", service="hue")
        gauge.set(4)
        named = re.escape("depth{service=hue}") + ".*" + re.escape(repr(bad))
        with pytest.raises(ValueError, match=named):
            gauge.set(bad)
        with pytest.raises(ValueError, match=named):
            gauge.add(bad)
        assert gauge.value == 4.0

    def test_rejects_an_add_that_overflows(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(1.5e308)
        with pytest.raises(ValueError, match="inf"):
            gauge.add(1.5e308)
        assert gauge.value == 1.5e308


class TestHistogram:
    def test_counts_sum_min_max(self):
        histogram = MetricsRegistry().histogram("lat")
        for v in (0.2, 1.5, 90.0):
            histogram.observe(v)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(91.7)
        assert histogram.min == pytest.approx(0.2)
        assert histogram.max == pytest.approx(90.0)
        assert sum(histogram.bucket_counts) == 3

    def test_bucket_assignment_uses_upper_edges(self):
        histogram = MetricsRegistry().histogram("sizes", bounds=(1.0, 10.0))
        histogram.observe(1.0)   # <= 1  -> bucket 0
        histogram.observe(5.0)   # <= 10 -> bucket 1
        histogram.observe(99.0)  # overflow
        assert histogram.bucket_counts == [1, 1, 1]

    def test_quantiles_track_the_stream(self):
        histogram = MetricsRegistry().histogram("lat")
        for v in range(1, 1001):
            histogram.observe(float(v))
        assert histogram.quantile(0.5) == pytest.approx(500, rel=0.1)
        assert histogram.quantile(0.99) == pytest.approx(990, rel=0.05)

    def test_rejects_unordered_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(5.0, 1.0))

    def test_count_buckets_cover_zero(self):
        histogram = MetricsRegistry().histogram("batch", bounds=COUNT_BUCKETS)
        histogram.observe(0)
        assert histogram.bucket_counts[0] == 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_a_non_finite_sample_at_the_call(self, bad):
        # 1..6, the bad value, 7..39: a NaN used to be counted in the
        # <= 1 ms bucket, turn ``sum`` into NaN and shift p50; an infinity
        # made ``sum``/``max`` infinite and every quantile NaN; either put
        # a bare NaN/Infinity in the snapshot line
        registry, clean = MetricsRegistry(), MetricsRegistry()
        histogram = registry.histogram("lat", service="hue")
        for value in range(1, 7):
            histogram.observe(value)
            clean.histogram("lat", service="hue").observe(value)
        named = re.escape("lat{service=hue}") + ".*" + re.escape(repr(bad))
        with pytest.raises(ValueError, match=named):
            histogram.observe(bad)
        for value in range(7, 40):
            histogram.observe(value)
            clean.histogram("lat", service="hue").observe(value)
        line = json.dumps(histogram.snapshot(), sort_keys=True, allow_nan=False)
        assert line == json.dumps(clean.histogram("lat", service="hue").snapshot(),
                                  sort_keys=True)
        assert histogram.count == 39 and histogram.quantile(0.5) == 20.0

    def test_memory_stays_bounded_without_a_read(self):
        # Samples are buffered and folded FOLD_BATCH at a time, so 100K
        # samples with no read leave fewer than FOLD_BATCH pending.  The
        # footprint is what a copy of the histogram allocates (unpickling
        # re-creates every object it holds, floats included; tracing the
        # observes themselves would be needlessly slow): the buckets,
        # scalars and sketch (~4 KiB) plus at most FOLD_BATCH - 1 pending
        # floats (32 B each with the list slot) stay under 16 KiB, where
        # an unbounded buffer would hold ~3 MiB.
        histogram = Histogram("lat", {})
        for index in range(100_000):
            histogram.observe(index * 0.001)
        assert len(histogram._pending) < FOLD_BATCH
        blob = pickle.dumps(histogram)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            copy = pickle.loads(blob)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert after - before < 16 * 1024, after - before
        assert copy.snapshot() == histogram.snapshot()
        assert histogram.count == 100_000 and not histogram._pending


class TestScopes:
    def test_scoped_prefix_and_labels(self):
        registry = MetricsRegistry()
        engine = registry.scoped("engine", service="hue")
        engine.counter("polls_sent").inc()
        assert registry.value("engine.polls_sent", service="hue") == 1

    def test_nested_scopes_compose(self):
        registry = MetricsRegistry()
        registry.scoped("a").scoped("b").counter("c").inc()
        assert registry.value("a.b.c") == 1

    def test_call_site_labels_override_scope_labels(self):
        registry = MetricsRegistry()
        scope = registry.scoped("s", kind="default")
        scope.counter("n", kind="special").inc()
        assert registry.value("s.n", kind="special") == 1


def _populated_registry(seed: int, n: int = 400) -> MetricsRegistry:
    rng = Rng(seed=seed)
    registry = MetricsRegistry()
    registry.counter("polls", service="hue").inc(seed * 3 + 1)
    registry.counter("polls", service="wemo").inc(seed + 2)
    registry.gauge("rate").set(seed * 1.5)
    histogram = registry.histogram("lat")
    for _ in range(n):
        histogram.observe(rng.lognormal_median(90.0, 0.4))
    return registry


def _approx_equal(left, right, rel=1e-9):
    """Structural equality with float tolerance (nested dicts/lists)."""
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _approx_equal(left[k], right[k], rel) for k in left
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            _approx_equal(a, b, rel) for a, b in zip(left, right)
        )
    if isinstance(left, float) or isinstance(right, float):
        return left == pytest.approx(right, rel=rel)
    return left == right


class TestSnapshotsAndMerge:
    def test_snapshot_is_json_serializable_and_ordered(self):
        snapshot = _populated_registry(1).snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        names = [entry["name"] for entry in snapshot["metrics"]]
        assert names == sorted(names)

    def test_merge_is_commutative(self):
        a = _populated_registry(1).snapshot()
        b = _populated_registry(2).snapshot()
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_merge_is_associative(self):
        # Histogram sums are float additions, which are only associative
        # up to rounding — compare structurally with approx on floats.
        a = _populated_registry(1).snapshot()
        b = _populated_registry(2).snapshot()
        c = _populated_registry(3).snapshot()
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert _approx_equal(left, right)

    def test_merge_semantics_per_kind(self):
        a = _populated_registry(1).snapshot()
        b = _populated_registry(2).snapshot()
        merged = merge_snapshots(a, b)
        by_key = {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in merged["metrics"]
        }
        assert by_key[("polls", (("service", "hue"),))]["value"] == 4 + 7
        assert by_key[("rate", ())]["value"] == 3.0  # max of 1.5, 3.0
        histogram = by_key[("lat", ())]
        assert histogram["count"] == 800
        assert histogram["min"] <= min(
            e["min"] for s in (a, b) for e in s["metrics"] if e["name"] == "lat"
        )

    def test_merged_histogram_quantiles_from_buckets_are_sane(self):
        a = _populated_registry(1).snapshot()
        b = _populated_registry(2).snapshot()
        histogram = [
            e for e in merge_snapshots(a, b)["metrics"] if e["name"] == "lat"
        ][0]
        # The stream has median ~90 s; bucket interpolation is coarse but
        # must land inside the 50-250 s bucket span around it.
        assert 50 <= histogram["quantiles"]["0.5"] <= 250

    def test_merge_rejects_mismatched_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("lat", bounds=(1.0, 2.0)).observe(1.0)
        other = MetricsRegistry()
        other.histogram("lat", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError):
            merge_snapshots(registry.snapshot(), other.snapshot())

    def test_merge_rejects_kind_conflicts(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        b = MetricsRegistry()
        b.gauge("x").set(1)
        with pytest.raises(ValueError):
            merge_snapshots(a.snapshot(), b.snapshot())


#: Label values of both types a real registry mixes (shard ids, slugs).
_label_values = st.one_of(st.integers(-3, 40), st.sampled_from(["hue", "wemo", "0", ""]))


@st.composite
def _registry_snapshots(draw):
    """1-4 registry snapshots whose series overlap, with int/str labels;
    the kind is fixed by the name, so every pair of snapshots merges."""
    snapshots = []
    for _ in range(draw(st.integers(1, 4))):
        registry = MetricsRegistry()
        for kind, name, labels, samples in draw(st.lists(st.tuples(
            st.sampled_from(["counter", "gauge", "histogram"]),
            st.sampled_from(["a", "b"]),
            st.dictionaries(st.sampled_from(["service", "shard", "code"]), _label_values,
                            max_size=3),
            st.lists(st.floats(0.0, 3000.0), max_size=5),
        ), max_size=8)):
            name = f"{kind}.{name}"
            if kind == "counter":
                registry.counter(name, **labels).inc(len(samples))
            elif kind == "gauge":
                for sample in samples:
                    registry.gauge(name, **labels).set(sample)
            else:
                histogram = registry.histogram(name, **labels)
                for sample in samples:
                    histogram.observe(sample)
        snapshots.append(registry.snapshot())
    return snapshots


class TestMergeCopiesEntries:
    """``merge_snapshots`` copies a series' first entry structurally; the
    result must be the one the JSON round-trip copy gave."""

    @settings(max_examples=60, deadline=None)
    @given(snapshots=_registry_snapshots())
    def test_equals_the_json_round_trip_copy(self, snapshots):
        merged = merge_snapshots(*snapshots)
        with mock.patch.object(
            metrics_module, "_copy_entry", lambda entry: json.loads(json.dumps(entry)),
        ):
            reference = merge_snapshots(*snapshots)
        assert merged == reference
        assert json.dumps(merged) == json.dumps(reference)
        assert json.dumps(merged, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_output_shares_nothing_with_its_inputs(self):
        snapshot = _populated_registry(1).snapshot()
        before = json.dumps(snapshot)
        for entry in merge_snapshots(snapshot)["metrics"]:
            for value in entry.values():
                if isinstance(value, (dict, list)):
                    value.clear()
        assert json.dumps(snapshot) == before

    def test_tuples_come_back_as_lists(self):
        entry = {"type": "histogram", "name": "h", "labels": {"shard": 0},
                 "bounds": (1.0, 2.0), "bucket_counts": (0, 1, 0)}
        copied = metrics_module._copy_entry(entry)
        assert copied == json.loads(json.dumps(entry))
        assert type(copied["bounds"]) is list


class TestJsonExport:
    def test_round_trip_preserves_every_metric(self):
        snapshot = _populated_registry(5).snapshot()
        text = snapshot_to_json_lines(snapshot)
        assert snapshot_from_json_lines(text) == json.loads(json.dumps(snapshot))

    def test_one_line_per_metric(self):
        registry = _populated_registry(5)
        text = registry.to_json_lines()
        assert len(text.splitlines()) == len(registry)

    def test_round_trip_then_merge_matches_direct_merge(self):
        a = _populated_registry(1).snapshot()
        b = _populated_registry(2).snapshot()
        via_text = merge_snapshots(
            snapshot_from_json_lines(snapshot_to_json_lines(a)),
            snapshot_from_json_lines(snapshot_to_json_lines(b)),
        )
        assert via_text == merge_snapshots(a, b)
