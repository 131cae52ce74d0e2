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
  absorb samples into fixed buckets plus a P² quantile sketch.

Snapshots are plain JSON-able dicts.  :func:`merge_snapshots` is
commutative and associative (counters add, gauges take the max,
histogram buckets add), so shard-per-process runs can be combined in any
order.  Quantiles of merged histograms are re-derived from the merged
buckets (bucket-resolution error); unmerged snapshots carry the sharper
P² estimates.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from math import isfinite
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.quantiles import DEFAULT_QUANTILES, QuantileSketch

LabelItems = Tuple[Tuple[str, Any], ...]

#: Default histogram buckets: log-spaced upper bounds covering sub-ms
#: network hops through the paper's 15-minute T2A tail (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Buckets for small non-negative counts (poll batch sizes and the like).
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 250, 500)

#: Samples a histogram buffers before folding them in: large enough that
#: the per-fold cost (a call, one loop set-up per tracked quantile) is a
#: small share of a sample's, small enough that the buffer stays a fixed,
#: small cost per series.
FOLD_BATCH = 256


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
    """Fixed log-spaced buckets plus a P² streaming-quantile sketch.

    ``bounds`` are bucket *upper* edges; one overflow bucket catches
    everything above the last edge, so ``len(bucket_counts) ==
    len(bounds) + 1``.  The sketch gives O(1)-memory p50/p95/p99 that the
    buckets alone could only resolve to bucket width.

    :meth:`observe` only checks and buffers a sample.  The buffer folds
    into the buckets, count, sum, min/max and sketch once it holds
    :data:`FOLD_BATCH` samples, and before any read (``count``,
    ``total``, ``min``, ``max``, ``bucket_counts``, ``sketch``,
    :meth:`quantile`, :meth:`mean`, :meth:`snapshot`).  A fold applies
    the samples in arrival order, so every read is bit-identical to
    absorbing each sample as it came, and memory stays O(1): the
    buckets, a few scalars, the sketch and fewer than ``FOLD_BATCH``
    pending floats.  A sample that is not finite (NaN, ±inf) is a
    ``ValueError`` at the call.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Dict[str, Any],
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        quantile_points: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        super().__init__(name, labels)
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"bounds must be strictly increasing, got {bounds}")
        self.bounds = ordered
        self._bucket_counts = [0] * (len(ordered) + 1)
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._sketch = QuantileSketch(quantile_points)
        self._pending: List[float] = []

    def observe(self, value: float) -> None:
        """Absorb one sample (a ``ValueError`` unless finite)."""
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"{self!r}: sample {value!r} is not finite")
        pending = self._pending
        pending.append(value)
        if len(pending) >= FOLD_BATCH:
            self._fold()

    def _fold(self) -> None:
        """Absorb the pending samples, in arrival order."""
        values = self._pending
        if not values:
            return
        self._pending = []
        bounds, buckets = self.bounds, self._bucket_counts
        total = self._total
        if self._count:
            low, high = self._min, self._max
        else:
            low = high = values[0]
        for value in values:
            buckets[bisect_left(bounds, value)] += 1
            total += value
            if value < low:
                low = value
            elif value > high:
                high = value
        self._count += len(values)
        self._total, self._min, self._max = total, low, high
        self._sketch.observe_many(values)

    @property
    def count(self) -> int:
        """Number of samples absorbed."""
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples."""
        self._fold()
        return self._total

    @property
    def min(self) -> Optional[float]:
        """Smallest sample (``None`` when empty)."""
        self._fold()
        return self._min

    @property
    def max(self) -> Optional[float]:
        """Largest sample (``None`` when empty)."""
        self._fold()
        return self._max

    @property
    def bucket_counts(self) -> List[int]:
        """Samples per bucket; the last is the overflow bucket."""
        self._fold()
        return self._bucket_counts

    @property
    def sketch(self) -> QuantileSketch:
        """The P² sketch of every sample absorbed."""
        self._fold()
        return self._sketch

    def mean(self) -> float:
        """Arithmetic mean of all samples (NaN when empty)."""
        self._fold()
        return self._total / self._count if self._count else float("nan")

    def quantile(self, q: float) -> float:
        """P² estimate for one of the tracked quantile points."""
        return self.sketch.quantile(q)

    def snapshot(self) -> Dict[str, Any]:
        self._fold()
        return {
            "type": self.kind,
            "name": self.name,
            "labels": self.labels,
            "count": self._count,
            "sum": self._total,
            "min": self._min,
            "max": self._max,
            "bounds": list(self.bounds),
            "bucket_counts": list(self._bucket_counts),
            "quantiles": {str(q): v for q, v in self._sketch.values().items()},
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

    def to_json_lines(self) -> str:
        """One JSON object per metric, one per line (for file export)."""
        return snapshot_to_json_lines(self.snapshot())

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
    bounds: List[float], bucket_counts: List[int], points: Sequence[float]
) -> Dict[str, float]:
    """Quantiles interpolated from bucket counts (merged-snapshot path).

    Assumes samples are uniform within a bucket; the overflow bucket
    reports its lower edge (the best available bound).
    """
    total = sum(bucket_counts)
    if total == 0:
        return {}
    edges = [0.0] + list(bounds)
    out: Dict[str, float] = {}
    for q in points:
        target = q * total
        seen = 0.0
        estimate = bounds[-1]
        for index, count in enumerate(bucket_counts):
            if count and seen + count >= target:
                lo = edges[index] if index < len(bounds) else bounds[-1]
                hi = bounds[index] if index < len(bounds) else bounds[-1]
                frac = (target - seen) / count
                estimate = lo + (hi - lo) * frac
                break
            seen += count
        out[str(q)] = estimate
    return out


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
    counts, take min/max envelopes, and re-derive quantiles from the
    merged buckets.  Histograms with differing bounds cannot be merged.
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
                points = sorted(
                    {float(q) for q in current["quantiles"]}
                    | {float(q) for q in entry["quantiles"]}
                ) or list(DEFAULT_QUANTILES)
                current["quantiles"] = _quantiles_from_buckets(
                    current["bounds"], current["bucket_counts"], points
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
