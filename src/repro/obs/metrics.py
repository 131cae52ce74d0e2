"""Counters, gauges, histograms, and the registry that owns them.

The paper's measurement methodology (§4) is multi-vantage-point: every
entity of the testbed observes and records.  The raw
:class:`~repro.simcore.trace.Trace` keeps that role for *forensic*
queries; this module adds the *pre-aggregated* layer a production-scale
deployment needs — O(1)-memory metrics that hot paths update in place and
analyses read without scanning millions of records.

Naming conventions (see ``docs/OBSERVABILITY.md``):

* metric names are dotted ``subsystem.measure[_unit]`` strings, e.g.
  ``engine.t2a_seconds`` or ``net.messages_delivered``;
* labels are lowercase keyword dimensions with *bounded* cardinality
  (service slugs, status classes — never user ids or event ids);
* counters only go up, gauges are set to the latest level, histograms
  count samples into fixed buckets.

Snapshots are plain JSON-able dicts.  :func:`merge_snapshots` is
commutative and associative (counters add, gauges take the max,
histogram buckets add), so shard-per-process runs can be combined in any
order.  A histogram keeps no sketch: every quantile it reports, merged
or not, is read from its buckets, min and max by one estimator, so a
merged snapshot reports exactly the quantiles of one registry fed the
whole stream.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import inf, isfinite
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, Any], ...]

#: Default histogram buckets (seconds): upper edges 20 to a decade, each
#: at most 12.2 % above the last, from 1 ms, below the fastest network
#: hop, to ≈ 2.5 ks, past the paper's 15-minute T2A tail.  Literals, so
#: that no libm is involved: one decade is four rows.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0e-3, 1.122e-3, 1.259e-3, 1.413e-3, 1.585e-3,
    1.778e-3, 1.995e-3, 2.239e-3, 2.512e-3, 2.818e-3,
    3.162e-3, 3.548e-3, 3.981e-3, 4.467e-3, 5.012e-3,
    5.623e-3, 6.31e-3, 7.079e-3, 7.943e-3, 8.913e-3,
    1.0e-2, 1.122e-2, 1.259e-2, 1.413e-2, 1.585e-2,
    1.778e-2, 1.995e-2, 2.239e-2, 2.512e-2, 2.818e-2,
    3.162e-2, 3.548e-2, 3.981e-2, 4.467e-2, 5.012e-2,
    5.623e-2, 6.31e-2, 7.079e-2, 7.943e-2, 8.913e-2,
    1.0e-1, 1.122e-1, 1.259e-1, 1.413e-1, 1.585e-1,
    1.778e-1, 1.995e-1, 2.239e-1, 2.512e-1, 2.818e-1,
    3.162e-1, 3.548e-1, 3.981e-1, 4.467e-1, 5.012e-1,
    5.623e-1, 6.31e-1, 7.079e-1, 7.943e-1, 8.913e-1,
    1.0e0, 1.122e0, 1.259e0, 1.413e0, 1.585e0,
    1.778e0, 1.995e0, 2.239e0, 2.512e0, 2.818e0,
    3.162e0, 3.548e0, 3.981e0, 4.467e0, 5.012e0,
    5.623e0, 6.31e0, 7.079e0, 7.943e0, 8.913e0,
    1.0e1, 1.122e1, 1.259e1, 1.413e1, 1.585e1,
    1.778e1, 1.995e1, 2.239e1, 2.512e1, 2.818e1,
    3.162e1, 3.548e1, 3.981e1, 4.467e1, 5.012e1,
    5.623e1, 6.31e1, 7.079e1, 7.943e1, 8.913e1,
    1.0e2, 1.122e2, 1.259e2, 1.413e2, 1.585e2,
    1.778e2, 1.995e2, 2.239e2, 2.512e2, 2.818e2,
    3.162e2, 3.548e2, 3.981e2, 4.467e2, 5.012e2,
    5.623e2, 6.31e2, 7.079e2, 7.943e2, 8.913e2,
    1.0e3, 1.122e3, 1.259e3, 1.413e3, 1.585e3,
    1.778e3, 1.995e3, 2.239e3, 2.512e3,
)

#: Buckets for small non-negative counts (poll batch sizes and the
#: like): one per count through 20, centred on it so that estimates read
#: from the bucket straddle the count instead of lying below it, then 10
#: to a decade up to 500.
COUNT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5,
    11.5, 12.5, 13.5, 14.5, 15.5, 16.5, 17.5, 18.5, 19.5, 20.5,
    25.0, 32.0, 40.0, 50.0, 63.0, 79.0, 100.0,
    126.0, 158.0, 200.0, 251.0, 316.0, 398.0, 500.0,
)

#: The quantiles a histogram snapshot reports.
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    if len(labels) < 2:  # nothing to sort
        return tuple(labels.items())
    return tuple(sorted(labels.items()))


class Metric:
    """Common identity for all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able dict describing the current state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"<{type(self).__name__} {self.name}{{{tags}}}>"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative — counters never decrease)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value}


class Gauge(Metric):
    """A level that can move both ways (queue depth, rate, clock)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the latest level (a ``ValueError`` unless finite)."""
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"{self!r}: set({value!r}) is not a finite level")
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the level by ``delta`` (may be negative; the level must
        stay finite)."""
        value = self.value + float(delta)
        if not isfinite(value):
            raise ValueError(f"{self!r}: add({delta!r}) leaves the level at {value!r}")
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value}


class Histogram(Metric):
    """Samples counted into fixed buckets, with their count, sum, min and max.

    ``bounds`` are bucket *upper* edges: a sample ``v`` lands in the first
    bucket whose edge is ``>= v``, and one overflow bucket catches
    everything above the last edge, so ``len(bucket_counts) ==
    len(bounds) + 1``.  That is all a histogram holds, whatever the
    number of samples; quantiles are read from it (:meth:`quantile`),
    never tracked per sample.  A sample that is not finite (NaN, ±inf) is
    a ``ValueError`` at the call.
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: Dict[str, Any], bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, labels)
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"bounds must be strictly increasing, got {bounds}")
        self.bounds = ordered
        #: Samples per bucket; the last is the overflow bucket.
        self.bucket_counts = [0] * (len(ordered) + 1)
        #: Number of samples absorbed.
        self.count = 0
        #: Sum of all samples, added in arrival order.
        self.total = 0.0
        self._low = inf
        self._high = -inf

    def observe(self, value: float) -> None:
        """Absorb one sample (a ``ValueError`` unless finite)."""
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"{self!r}: sample {value!r} is not finite")
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._low:
            self._low = value
        if value > self._high:
            self._high = value

    @property
    def min(self) -> Optional[float]:
        """Smallest sample (``None`` when empty)."""
        return self._low if self.count else None

    @property
    def max(self) -> Optional[float]:
        """Largest sample (``None`` when empty)."""
        return self._high if self.count else None

    def mean(self) -> float:
        """Arithmetic mean of all samples (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q`` quantile (``0 <= q <= 1``) read from the buckets; a
        ``ValueError`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError(f"{self!r} is empty: no quantile to read")
        return _quantiles_from_buckets(
            self.bounds, self.bucket_counts, self._low, self._high, (q,)
        )[0]

    def snapshot(self) -> Dict[str, Any]:
        low, high = self.min, self.max
        return {
            "type": self.kind,
            "name": self.name,
            "labels": self.labels,
            "count": self.count,
            "sum": self.total,
            "min": low,
            "max": high,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "quantiles": _snapshot_quantiles(self.bounds, self.bucket_counts, low, high),
        }


class MetricsRegistry:
    """The root owner of all metrics for one run.

    :meth:`counter` / :meth:`gauge` / :meth:`histogram` get-or-create
    the named instrument; repeated calls with the same name and labels
    return the same object.  That is the interface for set-up and for
    paths that fire per *incident* (a transition, a shed, a dead
    letter).  Sites that record per *event* hold their instruments in a
    :class:`~repro.obs.bound.Bound` instead, so get-or-create runs once
    per series, not once per sample.

    ``scoped`` provides hierarchical naming: a scope prefixes every
    metric name with ``<prefix>.`` and merges its base labels into every
    call, while writing into the shared underlying store.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}

    # -- instrument accessors ------------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs: Any) -> Metric:
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            if cls is Histogram and existing.bounds != tuple(kwargs["bounds"]):
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}, not {tuple(kwargs['bounds'])}"
                )
            return existing
        metric = cls(name, labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        """Get or create a histogram; asking for an existing one with
        other ``bounds`` is a ``ValueError`` (as merging them would be)."""
        return self._get(Histogram, name, labels, bounds=bounds)

    def scoped(self, prefix: str, **labels: Any) -> "ScopedRegistry":
        """A view that prefixes names with ``prefix.`` and adds ``labels``."""
        return ScopedRegistry(self, prefix, labels)

    # -- inspection ----------------------------------------------------------

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: Any) -> Optional[Metric]:
        """Look up an existing metric, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0, **labels: Any) -> float:
        """Counter/gauge value by name, or ``default`` when absent."""
        metric = self.get(name, **labels)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its snapshot instead")
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        return sum(
            m.value for (n, _), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        )

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as one JSON-able dict, deterministically ordered."""
        entries = [metric.snapshot() for metric in self._metrics.values()]
        entries.sort(key=_entry_sort_key)
        return {"metrics": entries}

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._metrics)} metrics>"


class ScopedRegistry:
    """A hierarchical view over a :class:`MetricsRegistry`.

    >>> reg = MetricsRegistry()
    >>> engine = reg.scoped("engine", service="hue")
    >>> engine.counter("polls_sent").inc()
    >>> reg.value("engine.polls_sent", service="hue")
    1
    """

    def __init__(self, root: MetricsRegistry, prefix: str, labels: Dict[str, Any]) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self.root = root
        self.prefix = prefix
        self.base_labels = dict(labels)

    def _merged(self, labels: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(self.base_labels)
        merged.update(labels)
        return merged

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter under this scope."""
        return self.root.counter(f"{self.prefix}.{name}", **self._merged(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge under this scope."""
        return self.root.gauge(f"{self.prefix}.{name}", **self._merged(labels))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        """Get or create a histogram under this scope."""
        return self.root.histogram(
            f"{self.prefix}.{name}", bounds=bounds, **self._merged(labels)
        )

    def scoped(self, prefix: str, **labels: Any) -> "ScopedRegistry":
        """A deeper scope (prefixes compose with dots)."""
        return ScopedRegistry(self.root, f"{self.prefix}.{prefix}", self._merged(labels))

    def __repr__(self) -> str:
        return f"<ScopedRegistry {self.prefix!r} on {self.root!r}>"


# -- snapshot algebra --------------------------------------------------------


def _entry_sort_key(entry: Dict[str, Any]) -> Tuple[str, str]:
    # Label values may mix types (ints, strings); compare their JSON form.
    return entry["name"], json.dumps(entry["labels"], sort_keys=True)


def _quantiles_from_buckets(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    low: float,
    high: float,
    points: Sequence[float],
) -> List[float]:
    """The one quantile estimator: each of ``points`` read from a
    non-empty histogram's buckets and its min (``low``) and max (``high``).

    An estimate is :func:`repro.simcore.rng.quantiles` — linear
    interpolation between the order statistics either side of rank
    ``q * (count - 1)`` — of the sample the buckets describe: each
    bucket's samples spread evenly over its span, with the span's edges
    clamped to ``[low, high]`` (so the outermost buckets, the open first
    and overflow ones included, end at the extremes actually seen).  An
    estimated order statistic never leaves its own bucket, so an estimate
    is off the exact quantile by less than the widest bucket it
    interpolates across and lies in the exact value's bucket or a
    neighbour: within a factor 1.122 of it on :data:`DEFAULT_BUCKETS`
    between 1 ms and 2.5 ks, within 1 of it on :data:`COUNT_BUCKETS`
    through 20.
    """
    cumulative = list(accumulate(bucket_counts))
    last = cumulative[-1] - 1
    top = len(bounds)

    def order_statistic(rank: int) -> float:
        index = bisect_right(cumulative, rank)
        count = bucket_counts[index]
        place = rank - cumulative[index] + count  # among the bucket's samples
        lo = max(bounds[index - 1], low) if index else low
        hi = min(bounds[index], high) if index < top else high
        return min(hi, lo + (hi - lo) * (place + 0.5) / count)

    estimates = []
    for q in points:
        position = q * last
        rank = int(position)
        below, above = order_statistic(rank), order_statistic(min(rank + 1, last))
        frac = position - rank
        estimates.append(min(max(below * (1 - frac) + above * frac, below), above))
    return estimates


def _snapshot_quantiles(
    bounds: Sequence[float], bucket_counts: Sequence[int], low: Optional[float],
    high: Optional[float],
) -> Dict[str, float]:
    """A snapshot's ``quantiles`` field: :data:`QUANTILES` keyed by their
    ``str``, or ``{}`` for an empty histogram."""
    if low is None:
        return {}
    estimates = _quantiles_from_buckets(bounds, bucket_counts, low, high, QUANTILES)
    return {str(q): value for q, value in zip(QUANTILES, estimates)}


def _copy_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """``json.loads(json.dumps(entry))`` for one snapshot entry, without
    the text round trip.

    An entry's fields are scalars or flat containers of scalars: the
    ``labels`` dict, a histogram's ``bounds`` / ``bucket_counts`` lists
    and its ``quantiles`` dict, all keyed by strings.  So one level of
    copying gives the JSON copy: dicts stay dicts in key order, lists
    and tuples become lists, and scalars come back equal.
    """
    copied = {}
    for key, value in entry.items():
        kind = type(value)
        if kind is dict:
            value = dict(value)
        elif kind is list or kind is tuple:
            value = list(value)
        copied[key] = value
    return copied


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Combine registry snapshots from independent shards.

    Commutative and associative: counters add; gauges keep the maximum
    (the only symmetric choice that is meaningful for the high-watermark
    gauges the library emits); histograms add bucket counts, sums, and
    counts, take min/max envelopes, and read quantiles from the merged
    buckets and envelopes, as the histogram itself does — so merging
    shards reports what one registry fed every shard's samples would.
    Histograms with differing bounds cannot be merged.
    """
    merged: Dict[Tuple[str, LabelItems], Dict[str, Any]] = {}
    for snapshot in snapshots:
        for entry in snapshot["metrics"]:
            key = (entry["name"], _label_key(entry["labels"]))
            current = merged.get(key)
            if current is None:
                merged[key] = _copy_entry(entry)
                continue
            if current["type"] != entry["type"]:
                raise ValueError(
                    f"cannot merge {entry['name']!r}: {current['type']} vs {entry['type']}"
                )
            if entry["type"] == "counter":
                current["value"] += entry["value"]
            elif entry["type"] == "gauge":
                current["value"] = max(current["value"], entry["value"])
            else:
                if current["bounds"] != entry["bounds"]:
                    raise ValueError(
                        f"cannot merge histogram {entry['name']!r}: bucket bounds differ"
                    )
                current["count"] += entry["count"]
                current["sum"] += entry["sum"]
                mins = [m for m in (current["min"], entry["min"]) if m is not None]
                maxes = [m for m in (current["max"], entry["max"]) if m is not None]
                current["min"] = min(mins) if mins else None
                current["max"] = max(maxes) if maxes else None
                current["bucket_counts"] = [
                    a + b for a, b in zip(current["bucket_counts"], entry["bucket_counts"])
                ]
                current["quantiles"] = _snapshot_quantiles(
                    current["bounds"], current["bucket_counts"], current["min"], current["max"]
                )
    entries = list(merged.values())
    entries.sort(key=_entry_sort_key)
    return {"metrics": entries}


#: Metric names measured against the host's wall clock rather than the
#: simulation clock.  They vary run to run on the same seed, so any
#: byte-identical determinism check must exclude them.
WALLCLOCK_METRICS = frozenset({"sim.events_per_wallsec"})

def deterministic_snapshot(source: Any) -> Dict[str, Any]:
    """A snapshot with wall-clock-dependent metrics filtered out.

    ``source`` may be a :class:`MetricsRegistry` or an already-taken
    snapshot dict.  Two runs of the same scenario with the same seed and
    fault plan serialize the result byte-identically (see
    ``make chaos-check``); the raw :meth:`MetricsRegistry.snapshot`
    does not, because of :data:`WALLCLOCK_METRICS`.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    return {
        "metrics": [
            entry
            for entry in snapshot["metrics"]
            if entry["name"] not in WALLCLOCK_METRICS
        ]
    }


def snapshot_to_json_lines(snapshot: Dict[str, Any]) -> str:
    """Serialize a snapshot as one JSON object per line."""
    return "\n".join(
        json.dumps(entry, sort_keys=True) for entry in snapshot["metrics"]
    )


def snapshot_from_json_lines(text: str) -> Dict[str, Any]:
    """Parse :func:`snapshot_to_json_lines` output back into a snapshot."""
    entries = [json.loads(line) for line in text.splitlines() if line.strip()]
    entries.sort(key=_entry_sort_key)
    return {"metrics": entries}
