"""Structured trace recording.

Every vantage point in the testbed (local proxy, partner service, engine,
test controller) appends :class:`TraceRecord` entries to a shared
:class:`Trace`.  The §4 analyses (T2A latency, Table 5 timelines,
sequential clustering) are pure queries over this trace — mirroring how
the paper instrumented its testbed at multiple vantage points.

Recording is *lazy* and *flat*: :meth:`Trace.record` stores one tuple
``(time, shape_id, *detail.values())``, where the shape
``(source, kind, detail keys)`` is interned once per trace in a shape
table.  A vantage point records a handful of shapes thousands of times,
so the source, kind and keys are held once per shape and the per-record
``detail`` dict is never kept.  The frozen :class:`TraceRecord` is built
only when a query reads an entry, with a fresh ``detail`` dict zipped
from the shape's keys and the entry's values — so a record handed out
can be mutated without rewriting the append-only store.  Filters on
``kind``, ``source`` and which detail keys a record carries are decided
once per shape, not once per record.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One instrumented observation.

    Attributes
    ----------
    time:
        Simulation time of the observation (seconds).
    source:
        Vantage point that recorded it (e.g. ``"proxy"``, ``"engine"``).
    kind:
        Event kind (e.g. ``"trigger_set"``, ``"poll"``, ``"action_executed"``).
    detail:
        Free-form structured payload (applet id, run id, device name, ...).
    """

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``record.detail.get(key, default)``."""
        return self.detail.get(key, default)


#: What a shape interns: ``(source, kind, detail keys in order)``.
_Shape = Tuple[str, str, Tuple[str, ...]]

#: Internal storage: ``(time, shape_id, *detail values)``.
_Entry = Tuple[Any, ...]

#: Per shape id: ``None`` when no record of the shape can match a filter,
#: else the ``(entry index, wanted value)`` pairs still to check per record.
_Plan = List[Optional[Tuple[Tuple[int, Any], ...]]]


class Trace:
    """An append-only, queryable log of :class:`TraceRecord` entries.

    By default the trace grows without bound — the right behaviour for
    the paper's bounded experiments, but a memory leak for soak runs.
    Passing ``max_records`` turns the store into a ring buffer: the
    oldest records are evicted once the cap is reached (``dropped``
    counts evictions), and every query sees only the retained window.
    Because the simulation is deterministic, a bounded trace holds
    exactly the suffix an unbounded run would have recorded, so
    windowed §4 latency statistics are unaffected (see
    ``tests/test_scenario_soak.py``).
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = max_records
        self.total_recorded = 0
        self._cleared = 0  # records dropped by clear(), so dropped stays derivable
        self._records: Deque[_Entry] = deque(maxlen=max_records)
        self._shapes: List[_Shape] = []
        self._shape_ids: Dict[_Shape, int] = {}

    @property
    def dropped(self) -> int:
        """Records evicted by the ``max_records`` cap (0 when unbounded)."""
        return self.total_recorded - len(self._records) - self._cleared

    def record(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Append a record (evicting the oldest when bounded)."""
        try:
            shape_id = self._shape_ids[source, kind, tuple(detail)]
        except KeyError:
            shape = (source, kind, tuple(detail))
            shape_id = self._shape_ids[shape] = len(self._shapes)
            self._shapes.append(shape)
        self._records.append((time, shape_id, *detail.values()))
        self.total_recorded += 1

    def _materialize(self, entry: _Entry) -> TraceRecord:
        source, kind, keys = self._shapes[entry[1]]
        return TraceRecord(
            time=entry[0], source=source, kind=kind, detail=dict(zip(keys, entry[2:]))
        )

    def _plan(
        self, kind: Optional[str], source: Optional[str], detail_equals: Dict[str, Any]
    ) -> _Plan:
        plan: _Plan = []
        for s_source, s_kind, keys in self._shapes:
            if (kind is not None and s_kind != kind) or (source is not None and s_source != source):
                plan.append(None)
            elif any(wanted is not None for key, wanted in detail_equals.items() if key not in keys):
                plan.append(None)  # a key the shape lacks reads as None in all its records
            else:
                plan.append(tuple(
                    (keys.index(key) + 2, wanted)
                    for key, wanted in detail_equals.items() if key in keys
                ))
        return plan

    def _select(
        self,
        kind: Optional[str],
        source: Optional[str],
        since: Optional[float],
        until: Optional[float],
        detail_equals: Dict[str, Any],
    ) -> Iterator[_Entry]:
        plan = self._plan(kind, source, detail_equals)
        for entry in self._records:
            checks = plan[entry[1]]
            if checks is None:
                continue
            if since is not None and entry[0] < since:
                continue
            if until is not None and entry[0] > until:
                continue
            if checks and any(entry[index] != wanted for index, wanted in checks):
                continue
            yield entry

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (self._materialize(entry) for entry in self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._materialize(self._records[index])

    def clear(self) -> None:
        """Drop all records (used between experiment runs)."""
        self._cleared += len(self._records)
        self._records.clear()

    def query(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        where: Optional[Callable[[TraceRecord], bool]] = None,
        **detail_equals: Any,
    ) -> List[TraceRecord]:
        """Filter records by kind, source, time window, and detail equality.

        ``detail_equals`` keyword arguments must match the record's detail
        dict exactly (e.g. ``trace.query(kind="poll", applet_id=3)``); a
        key the record lacks reads as ``None``.  Only matching entries are
        materialized into :class:`TraceRecord` objects; non-matches are
        rejected on the raw storage tuples.
        """
        out: List[TraceRecord] = []
        for entry in self._select(kind, source, since, until, detail_equals):
            rec = self._materialize(entry)
            if where is not None and not where(rec):
                continue
            out.append(rec)
        return out

    def first(self, kind: str, **detail_equals: Any) -> Optional[TraceRecord]:
        """First record matching the filters, or ``None``."""
        matches = self.query(kind=kind, **detail_equals)
        return matches[0] if matches else None

    def last(self, kind: str, **detail_equals: Any) -> Optional[TraceRecord]:
        """Last record matching the filters, or ``None``."""
        matches = self.query(kind=kind, **detail_equals)
        return matches[-1] if matches else None

    def times(self, kind: str, **detail_equals: Any) -> List[float]:
        """Timestamps of all matching records, in order."""
        return [entry[0] for entry in self._select(kind, None, None, None, detail_equals)]

    def kinds(self) -> Dict[str, int]:
        """Histogram of record kinds."""
        counts: Dict[str, int] = {}
        for shape_id, n in Counter(map(itemgetter(1), self._records)).items():
            kind = self._shapes[shape_id][1]
            counts[kind] = counts.get(kind, 0) + n
        return counts

    def __repr__(self) -> str:
        return f"<Trace {len(self._records)} records>"
