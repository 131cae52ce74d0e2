"""An idle applet owns no event containers; a busy one behaves as before.

The dedupe window of an applet (``_AppletRuntime.seen_order``) is born
by the applet's first event, its set (``seen_ids``) only once it holds
more than ``WINDOW_LIST_MAX`` ids, and the ring of a ``TriggerBuffer``
by its first ``append`` — most of a fleet never sees any of them
(docs/PERFORMANCE.md, "Where an applet's bytes go").  Window and ring
are lists, and a publication's fanned-out events share one read-only
ingredients mapping ("Where a publication's bytes go").  Pinned here:

(a) ``IftttEngine._new_events`` against the eager set-and-deque it
    replaced, kept below as the reference, over random poll/push
    histories through ``WINDOW_LIST_MAX`` and past ``DEDUPE_WINDOW``;
(b) ``TriggerBuffer`` against a plain ``deque(maxlen=capacity)``;
(c) what an idle applet costs, in ``tracemalloc`` bytes — the guard that
    fails when an eager container comes back;
(d) what a fanned-out event costs, in the same bytes, and that its
    ingredients are extracted and stored once per publication;
(e) what a publication's burst costs while it is in flight: poll
    responses and push notifications carry the buffered record, not a
    copy ("Where a fetched event's bytes go").
"""

import gc
import tracemalloc
from collections import deque
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.engine.engine import DEDUPE_WINDOW, WINDOW_LIST_MAX
from repro.engine.push import PushPolicy
from repro.services.buffer import TriggerBuffer, TriggerEvent
from repro.services.partner import TRIGGER_PATH
from repro.testbed.workload import FleetWorld

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet

# -- (a) the dedupe window vs the eager one it replaced ----------------------------

class EagerWindow:
    """``_new_events`` as it was when every applet was born with its
    ``set()`` and ``deque()``."""

    def __init__(self):
        self.seen = set()
        self.order = deque()

    def new_events(self, events):
        fresh = []
        for event in events:
            event_id = event.event_id
            if event_id in self.seen:
                continue
            self.seen.add(event_id)
            self.order.append(event_id)
            while len(self.order) > DEDUPE_WINDOW:
                self.seen.discard(self.order.popleft())
            fresh.append(event)
        return fresh


def record(event_id):
    return TriggerEvent(event_id, 0.0, MappingProxyType({"n": event_id}))


def histories(event_ids, max_records):
    """Poll responses of up to ``max_records`` records and pushed events."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("poll"), st.lists(event_ids, max_size=max_records)),
            st.tuples(st.just("push"), event_ids),
        ),
        max_size=30,
    )


def engine_and_runtime():
    world = build_engine_world(
        default_engine_config(push_policy=PushPolicy()), with_trace=False
    )
    applet = install_ping_applet(world.engine)
    return world.engine, world.engine._applets[applet.applet_id]


def assert_same_window(runtime, reference):
    """The applet's window holds the eager one's ids in its order, as a
    list alone up to ``WINDOW_LIST_MAX`` ids and with their set past it."""
    if not reference.order:  # nothing fresh yet, however many empty polls came back
        assert runtime.seen_ids is None and runtime.seen_order is None
        return
    assert runtime.seen_order == list(reference.order)
    if len(reference.order) > WINDOW_LIST_MAX:
        assert runtime.seen_ids == reference.seen
    else:
        assert runtime.seen_ids is None


def replay_history(engine, runtime, reference, history):
    for kind, payload in history:
        if kind == "poll":  # a poll response: any number of records, often none
            events = [record(event_id) for event_id in payload]
            assert engine._new_events(runtime, events) == reference.new_events(events)
        else:  # a pushed event reaches the same window through _deliver
            pushed = record(payload)
            delivered = engine.push._deliver(runtime.identity, pushed)
            assert delivered == len(reference.new_events((pushed,)))
        assert_same_window(runtime, reference)


@settings(max_examples=150, deadline=None)
@given(history=histories(st.integers(min_value=0, max_value=3 * WINDOW_LIST_MAX),
                         2 * WINDOW_LIST_MAX))
def test_new_events_matches_the_eager_window(history):
    """Small id ranges: duplicates, the list alone, and the set's birth."""
    engine, runtime = engine_and_runtime()
    reference = EagerWindow()
    assert runtime.seen_ids is None and runtime.seen_order is None
    replay_history(engine, runtime, reference, history)


#: Ids at both ends of a full window: the oldest, next to be evicted
#: (and fired again once they have been), and the newest, held or new.
edge_ids = st.one_of(
    st.integers(min_value=0, max_value=3 * WINDOW_LIST_MAX),
    st.integers(min_value=DEDUPE_WINDOW - WINDOW_LIST_MAX, max_value=DEDUPE_WINDOW + 24),
)


@settings(max_examples=60, deadline=None)
@given(history=histories(edge_ids, WINDOW_LIST_MAX))
def test_a_full_window_evicts_like_the_eager_window(history):
    engine, runtime = engine_and_runtime()
    reference = EagerWindow()
    # DEDUPE_WINDOW + 1 distinct ids first: every case fills the window
    # and evicts
    filled = ("poll", list(range(DEDUPE_WINDOW + 1)))
    replay_history(engine, runtime, reference, [filled, *history])
    assert len(runtime.seen_order) == DEDUPE_WINDOW == len(runtime.seen_ids)


# -- (b) the trigger buffer vs a plain bounded deque -------------------------------

buffer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.none()),
        st.tuples(st.just("fetch"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("len"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=5), ops=buffer_ops)
def test_trigger_buffer_matches_a_bounded_deque(capacity, ops):
    buffer = TriggerBuffer(capacity)
    ring = deque(maxlen=capacity)
    appended = 0
    for op, limit in ops:
        if op == "append":
            event = TriggerEvent(event_id=appended, created_at=float(appended))
            buffer.append(event)
            ring.append(event)
            appended += 1
        elif op == "fetch":
            assert buffer.fetch(limit) == list(reversed(ring))[:limit]
        else:
            assert len(buffer) == len(ring)
        assert buffer.total_appended == appended
        assert buffer.dropped == max(0, appended - capacity)
        assert repr(buffer) == f"<TriggerBuffer {len(ring)}/{capacity}>"
        assert isinstance(buffer._events, list) == (appended > 0)


def test_trigger_buffer_is_slotted():
    assert not hasattr(TriggerBuffer(), "__dict__")


def test_polled_identity_is_registered_under_the_endpoint_slug():
    world = build_engine_world(with_trace=False)
    first = install_ping_applet(world.engine, {"note": "a"}, name="first")
    second = install_ping_applet(world.engine, {"note": "b"}, name="second")
    world.sim.run_until(5.0)
    service = world.service
    assert service.known_identities == sorted(
        [first.trigger_identity, second.trigger_identity]
    )
    records = [service.buffer_for(identity) for identity in service.known_identities]
    # one slotted record an identity: its ring, trigger slug and fields
    assert not any(hasattr(held, "__dict__") for held in records)
    # one string per trigger — not one slice of the request path per identity
    assert records[0].trigger_slug is records[1].trigger_slug is service.trigger("ping").slug
    # registered without trigger fields: both share the one empty mapping
    assert records[0].fields is records[1].fields and records[0].fields == {}
    assert service.ingest_event("ping", {"n": 1}) == 2
    assert len(service.buffer_for(first.trigger_identity)) == 1


# -- (c) what an idle applet costs ---------------------------------------------------

FLEET = 2000
#: Traced bytes per idle applet: 797–799 with each poll one kernel heap
#: entry (800 with a poll heap per engine), itemised in
#: docs/PERFORMANCE.md.  3,074 with the eager dedupe window and buffer
#: ring; the one-element ``_by_identity`` list, the dataclass
#: ``Applet``'s ``__dict__`` and the ``(slug, fields, buffer)`` identity
#: tuple each cost 48–72 B more.  The 37 B of headroom is for
#: interpreter drift, less than any one of them: the guard fails if one
#: comes back.
IDLE_APPLET_BUDGET = 836


def test_idle_applet_footprint():
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        world = FleetWorld(
            FLEET, EngineConfig(initial_poll_jitter=120.0), seed=7,
            with_trace=False, with_metrics=False, shared_user=True, warmup=False,
        )
        world.sim.run_until(250.0)  # every applet has polled; nothing was published
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    runtimes = list(world.engine._applets.values())
    assert len(runtimes) == FLEET and all(runtime.polls >= 1 for runtime in runtimes)
    assert all(runtime.seen_ids is None for runtime in runtimes)
    assert all(runtime.seen_order is None for runtime in runtimes)
    identities = world.content.known_identities
    assert len(identities) == FLEET
    assert not any(
        isinstance(world.content.buffer_for(identity)._events, list)
        for identity in identities
    )
    assert (after - before) / FLEET <= IDLE_APPLET_BUDGET


# -- (d) what a fanned-out event costs ------------------------------------------------

PUBLICATIONS = 3
#: Traced bytes retained per (identity x publication) once every event is
#: buffered and delivered: 198.  924 with a frozen-dataclass event
#: holding its own ingredients dict, a ``deque`` ring and a ``deque``
#: window (one restored: 476 with the dataclass, 492 with either deque,
#: 491 with a mapping per event); 270 with a set in every window, where
#: three ids now stay a list (``WINDOW_LIST_MAX``).  The 42 B of headroom
#: (21 %) is less than that set's 72.
FANOUT_EVENT_BUDGET = 240


def lean_push_fleet():
    """``fanout_push``'s shape: watermarks provisioned to the fleet, so
    every event arrives in a push drain batch, none by poll."""
    config = EngineConfig(
        realtime_allowlist=frozenset(), initial_poll_jitter=120.0,
        push_policy=PushPolicy(max_batch=200, low_watermark=FLEET, high_watermark=4 * FLEET),
    )
    return FleetWorld(
        FLEET, config, seed=7, push=True,
        with_trace=False, with_metrics=False, shared_user=True,
    )


def test_fanned_out_event_footprint():
    world = lean_push_fleet()
    endpoint = world.content.trigger("new_photo")
    extract, extracted = endpoint.ingredients, []
    endpoint.ingredients = lambda event: extracted.append(event) or extract(event)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for index in range(PUBLICATIONS):
            world.publish(f"photo-{index}")
            world.sim.run_until(world.sim.now + 30.0)  # every event delivered in < 1 s
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    pushed = world.engine.stats()["push_events_ingested"]
    assert world.actions_executed == pushed == FLEET * PUBLICATIONS
    assert [event["photo"] for event in extracted] == [f"photo-{i}" for i in range(PUBLICATIONS)]
    assert (after - before) / (FLEET * PUBLICATIONS) <= FANOUT_EVENT_BUDGET

    identities = world.content.known_identities
    assert len(identities) == FLEET
    # oldest first: one column per publication, one row per identity
    rows = [world.content.buffer_for(identity).fetch()[::-1] for identity in identities]
    assert all(len(row) == PUBLICATIONS for row in rows)
    for index, column in enumerate(zip(*rows)):
        shared = column[0].ingredients
        assert shared == {"photo": f"photo-{index}"}
        assert all(event.ingredients is shared for event in column)
        with pytest.raises(TypeError):
            shared["photo"] = "overwritten"
    assert len({id(event.ingredients) for event in rows[0]}) == PUBLICATIONS

    # a poll returns the buffered records themselves, which nobody can rewrite
    engine, runtime = world.engine, next(iter(world.engine._applets.values()))
    got = []
    engine.post(
        world.content.address, TRIGGER_PATH + "new_photo",
        body={"trigger_identity": runtime.identity, "limit": 50},
        headers=engine._auth_headers(runtime.link, runtime.applet.user),
        on_response=got.append,
    )
    world.sim.run_until(world.sim.now + 1.0)
    buffered = world.content.buffer_for(runtime.identity).fetch()
    returned = got[0].body["data"]
    assert got[0].ok and len(returned) == len(buffered) == PUBLICATIONS
    assert all(event is held for event, held in zip(returned, buffered))
    with pytest.raises(TypeError):
        returned[0].ingredients["photo"] = "overwritten"


# -- (e) what a publication's burst costs ----------------------------------------------

#: Traced peak above the level before a publication, per pushed identity,
#: for publications 2 and 3 (the first also builds every identity's ring
#: and window: 1,225 B with a wire copy per fetch, 1,102 B without).
#: 916 B with the copy — three dicts per event per fetch — and about
#: 550 B carrying the buffered record.
FANOUT_BURST_BUDGET = 700


def test_fanned_out_event_burst():
    world = lean_push_fleet()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    bursts = []
    try:
        for index in range(PUBLICATIONS):
            level, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            world.publish(f"photo-{index}")
            world.sim.run_until(world.sim.now + 30.0)  # every event delivered in < 1 s
            _, peak = tracemalloc.get_traced_memory()
            bursts.append((peak - level) / FLEET)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert world.engine.stats()["push_events_ingested"] == FLEET * PUBLICATIONS
    assert max(bursts[1:]) <= FANOUT_BURST_BUDGET, bursts
