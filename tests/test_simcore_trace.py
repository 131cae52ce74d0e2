"""Tests for the trace recorder.

Besides the unit tests, pinned here (docs/PERFORMANCE.md, "Where a trace
record's bytes go"):

(a) the flat ``(time, shape_id, *values)`` store against the
    ``(time, source, kind, detail)`` store it replaced, kept below as the
    reference, over random record streams and every reader;
(b) a record handed out by a reader cannot rewrite the store;
(c) what a record costs, in ``tracemalloc`` bytes — the guard that fails
    when the per-record ``detail`` dict comes back.
"""

import gc
import tracemalloc
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.trace import Trace, TraceRecord


class TestTrace:
    def test_record_and_length(self, trace):
        trace.record(1.0, "proxy", "event", device="lamp")
        assert len(trace) == 1
        assert trace[0].source == "proxy"
        assert trace[0].get("device") == "lamp"

    def test_query_by_kind(self, trace):
        trace.record(1.0, "a", "poll")
        trace.record(2.0, "a", "action")
        assert [r.kind for r in trace.query(kind="poll")] == ["poll"]

    def test_query_by_source(self, trace):
        trace.record(1.0, "engine", "poll")
        trace.record(2.0, "service", "poll")
        assert len(trace.query(kind="poll", source="engine")) == 1

    def test_query_time_window(self, trace):
        for t in (1.0, 2.0, 3.0):
            trace.record(t, "x", "tick")
        assert trace.times("tick") == [1.0, 2.0, 3.0]
        assert [r.time for r in trace.query(kind="tick", since=2.0)] == [2.0, 3.0]
        assert [r.time for r in trace.query(kind="tick", until=2.0)] == [1.0, 2.0]

    def test_query_detail_equality(self, trace):
        trace.record(1.0, "x", "poll", applet_id=1)
        trace.record(2.0, "x", "poll", applet_id=2)
        assert len(trace.query(kind="poll", applet_id=2)) == 1

    def test_query_missing_detail_key_no_match(self, trace):
        trace.record(1.0, "x", "poll")
        assert trace.query(kind="poll", applet_id=1) == []

    def test_query_where_predicate(self, trace):
        trace.record(1.0, "x", "poll", returned=0)
        trace.record(2.0, "x", "poll", returned=3)
        hits = trace.query(kind="poll", where=lambda r: r.get("returned", 0) > 0)
        assert [r.time for r in hits] == [2.0]

    def test_first_and_last(self, trace):
        trace.record(1.0, "x", "poll", n=1)
        trace.record(2.0, "x", "poll", n=2)
        assert trace.first("poll").get("n") == 1
        assert trace.last("poll").get("n") == 2
        assert trace.first("nothing") is None
        assert trace.last("nothing") is None

    def test_kinds_histogram(self, trace):
        trace.record(1.0, "x", "poll")
        trace.record(2.0, "x", "poll")
        trace.record(3.0, "x", "action")
        assert trace.kinds() == {"poll": 2, "action": 1}

    def test_clear(self, trace):
        trace.record(1.0, "x", "poll")
        trace.clear()
        assert len(trace) == 0

    def test_iteration_order_is_append_order(self, trace):
        trace.record(5.0, "x", "b")
        trace.record(1.0, "x", "a")  # times need not be monotone
        assert [r.kind for r in trace] == ["b", "a"]


# -- (a) the flat store vs the per-record-dict store it replaced --------------------

class ReferenceTrace:
    """``Trace`` as it was when every record kept its own ``detail`` dict:
    ``(time, source, kind, detail)`` tuples in a bounded deque."""

    def __init__(self, max_records=None):
        self.max_records = max_records
        self.dropped = 0
        self.total_recorded = 0
        self.records = deque(maxlen=max_records)

    def record(self, time, source, kind, **detail):
        if self.max_records is not None and len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append((time, source, kind, detail))
        self.total_recorded += 1

    def clear(self):
        self.records.clear()

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return (TraceRecord(*entry) for entry in self.records)

    def __getitem__(self, index):
        return TraceRecord(*self.records[index])

    def query(self, kind=None, source=None, since=None, until=None, where=None, **detail_equals):
        out = []
        for time, e_source, e_kind, detail in self.records:
            if kind is not None and e_kind != kind:
                continue
            if source is not None and e_source != source:
                continue
            if since is not None and time < since:
                continue
            if until is not None and time > until:
                continue
            if any(detail.get(k) != v for k, v in detail_equals.items()):
                continue
            rec = TraceRecord(time, e_source, e_kind, detail)
            if where is None or where(rec):
                out.append(rec)
        return out

    def first(self, kind, **detail_equals):
        matches = self.query(kind=kind, **detail_equals)
        return matches[0] if matches else None

    def last(self, kind, **detail_equals):
        matches = self.query(kind=kind, **detail_equals)
        return matches[-1] if matches else None

    def times(self, kind, **detail_equals):
        return [rec.time for rec in self.query(kind=kind, **detail_equals)]

    def kinds(self):
        counts = {}
        for _, _, kind, _ in self.records:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


SOURCES = ["engine", "proxy", "service:content"]
KINDS = ["poll", "action", "event"]
KEYS = ["applet_id", "identity", "returned"]
#: ``None``, small ints, strings and a mutable value, each also used as a
#: filter below.
VALUES = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["a", "b"]),
    st.lists(st.integers(min_value=0, max_value=1), max_size=1),
)
#: Detail as ordered (key, value) pairs: empty, any subset of ``KEYS``,
#: and the same keys in any order.
details = st.lists(st.tuples(st.sampled_from(KEYS), VALUES), unique_by=lambda kv: kv[0], max_size=3)
streams = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=6).map(float),
            st.sampled_from(SOURCES), st.sampled_from(KINDS), details,
        ),
        st.just("clear"),
    ),
    max_size=30,
)

#: Every detail filter shape: none, a present key, a key that is often
#: missing (so "missing equals ``None``" matches), two keys, a mutable value.
DETAIL_FILTERS = [
    {}, {"applet_id": 1}, {"applet_id": None}, {"returned": "a", "identity": None},
    {"identity": [0]},
]
WINDOWS = [(None, None), (2.0, None), (None, 4.0), (1.0, 5.0)]


def returned_truthy(rec):
    return bool(rec.get("returned"))


def view(rec):
    """A record with its detail's key order made visible to ``==``."""
    return None if rec is None else (rec.time, rec.source, rec.kind, list(rec.detail.items()))


@settings(max_examples=120, deadline=None)
@given(stream=streams, max_records=st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
def test_flat_store_matches_the_reference(stream, max_records):
    trace, reference = Trace(max_records=max_records), ReferenceTrace(max_records)
    for step in stream:
        for side in (trace, reference):
            if step == "clear":
                side.clear()
            else:
                time, source, kind, pairs = step
                side.record(time, source, kind, **dict(pairs))

    assert len(trace) == len(reference)
    assert [view(r) for r in trace] == [view(r) for r in reference]
    for index in range(-len(reference), len(reference)):
        assert view(trace[index]) == view(reference[index])
    assert (trace.dropped, trace.total_recorded) == (reference.dropped, reference.total_recorded)
    assert list(trace.kinds().items()) == list(reference.kinds().items())

    for kind in [None, *KINDS, "absent"]:
        for source in [None, *SOURCES]:
            for since, until in WINDOWS:
                for filters in DETAIL_FILTERS:
                    for where in (None, returned_truthy):
                        got = trace.query(kind, source, since, until, where, **filters)
                        want = reference.query(kind, source, since, until, where, **filters)
                        assert [view(r) for r in got] == [view(r) for r in want]
        if kind is None:
            continue
        for filters in DETAIL_FILTERS:
            assert trace.times(kind, **filters) == reference.times(kind, **filters)
            assert view(trace.first(kind, **filters)) == view(reference.first(kind, **filters))
            assert view(trace.last(kind, **filters)) == view(reference.last(kind, **filters))


# -- (b) a read record cannot rewrite the store -------------------------------------

def test_a_handed_out_record_cannot_rewrite_the_store(trace):
    trace.record(1.0, "engine", "poll", applet_id=1, identity="a")
    trace.record(2.0, "engine", "poll", applet_id=2, identity="b")
    trace.record(3.0, "engine", "poll", applet_id=3, identity="c")

    trace[0].detail["applet_id"] = 99
    trace.query(kind="poll", applet_id=2)[0].detail["applet_id"] = 99
    for rec in trace:
        rec.detail["identity"] = "z"

    assert trace.query(applet_id=99) == []
    assert trace.times("poll", identity="z") == []
    assert [r.detail for r in trace] == [
        {"applet_id": 1, "identity": "a"},
        {"applet_id": 2, "identity": "b"},
        {"applet_id": 3, "identity": "c"},
    ]
    assert trace[-1] == TraceRecord(3.0, "engine", "poll", {"applet_id": 3, "identity": "c"})


# -- (c) what a trace record costs ----------------------------------------------------

RECORDS = 30_000
#: Traced bytes per record of a ``fanout_observed``-shaped stream.  288
#: with the 4-tuple and its per-record ``detail`` dict; 115 flat (an
#: 80-88 B tuple, the 24 B time float and the deque's share).
TRACE_RECORD_BUDGET = 150


def test_trace_record_footprint():
    # what the world holds anyway: identities, applet ids, the service's
    # trace source and the trigger slug
    identities = [f"{n:040x}" for n in range(2000)]
    applet_ids = list(range(1000, 3000))
    service = "service:content"
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        trace = Trace()
        for poll in range(RECORDS // 3):  # fanout_observed's three per-poll kinds
            applet_id, identity = applet_ids[poll % 2000], identities[poll % 2000]
            trace.record(
                100.0 + poll, "engine", "engine_poll_sent",
                applet_id=applet_id, identity=identity, trigger="new_photo",
            )
            trace.record(
                100.05 + poll, service, "service_poll_served",
                trigger="new_photo", identity=identity, returned=0,
            )
            trace.record(
                100.1 + poll, "engine", "engine_poll_response",
                applet_id=applet_id, status=200, returned=0, new=0,
            )
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(trace) == RECORDS
    assert list(trace.kinds().values()) == [RECORDS // 3] * 3
    assert (after - before) / RECORDS <= TRACE_RECORD_BUDGET
