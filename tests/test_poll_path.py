"""The two ends of a poll against their slow, obvious definitions.

A poll round trip starts with the scheduler's wake and ends with the
response callback, the timeout cancel and the next interval draw.  Each
of those runs in one frame per layer, and each must equal, with ``==``,
what the slow path gives:

* ``ProductionPollingPolicy.next_interval`` against the
  ``Rng.lognormal_median`` + ``bernoulli`` + ``uniform`` + ``max`` chain,
  value, type and stream state;
* the simulator's cancel bookkeeping (``pending``, dead entries, the
  compaction trigger) against the rule written out here;
* ``HeapPollScheduler`` against a scheduler that re-arms and compacts
  through the helpers the fast path folds away.

Also here: the constructors and calls on the poll path refuse NaN and
±inf; the engine's request callbacks are bound methods that find their
context on the response, and its breaker hooks ``functools.partial``s of
one (no lambda or closure a pickle would choke on); and a
frames-per-poll guard keeps helper frames from coming back.
"""

from __future__ import annotations

import functools
import random
import sys
import types
from heapq import heapify, heappop, heappush
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import (
    AdaptivePollingPolicy,
    EngineConfig,
    FixedPollingPolicy,
    ProductionPollingPolicy,
)
from repro.engine.engine import ServiceRegistration, _AppletRuntime
from repro.engine.resilience import PendingAction, ReplayPolicy
from repro.engine.scheduler import HeapPollScheduler
from repro.net import Address, FixedLatency, HttpNode, Network
from repro.simcore import Rng, Simulator
from repro.simcore import simulator as simulator_module
from repro.testbed.chaos import ChaosWorld, chaos_scenario
from repro.testbed.workload import FleetWorld

from tests.test_scheduler_equivalence import StubEngine

NAN = float("nan")
INF = float("inf")


# -- next_interval == the lognormal_median chain ---------------------------------------


def oracle_interval(policy: ProductionPollingPolicy, rng: Rng) -> float:
    """``next_interval`` as it read before it was written out."""
    interval = rng.lognormal_median(policy.median, policy.sigma)
    if rng.bernoulli(policy.inflation_prob):
        interval *= rng.uniform(policy.inflation_min, policy.inflation_max)
    return max(policy.minimum, interval)


def assert_same_draws(policy: ProductionPollingPolicy, seed: int, draws: int) -> None:
    fast, slow = Rng(seed, "poll"), Rng(seed, "poll")
    got = [policy.next_interval(fast) for _ in range(draws)]
    want = [oracle_interval(policy, slow) for _ in range(draws)]
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert fast._random.getstate() == slow._random.getstate()


def test_the_calibrated_policy_draws_exactly_the_slow_chain():
    assert_same_draws(ProductionPollingPolicy(), seed=7, draws=2000)


@settings(max_examples=80, deadline=None)
@given(
    median=st.floats(1e-3, 1e4),
    sigma=st.floats(0.0, 2.0),
    minimum=st.one_of(st.floats(0.0, 500.0), st.integers(0, 500)),
    inflation_prob=st.floats(0.0, 1.0),
    inflation_min=st.floats(0.1, 10.0),
    inflation_max=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32),
)
def test_drawn_policies_draw_exactly_the_slow_chain(
    median, sigma, minimum, inflation_prob, inflation_min, inflation_max, seed
):
    policy = ProductionPollingPolicy(
        median=median,
        sigma=sigma,
        inflation_prob=inflation_prob,
        inflation_min=inflation_min,
        inflation_max=inflation_max,
        minimum=minimum,
    )
    assert_same_draws(policy, seed, draws=40)


def test_the_draw_loop_retries_and_stays_identical():
    """Kinderman–Monahan rejects about a quarter of its uniform pairs, so
    200 draws consume more than the two ``random()`` calls each plus one
    inflation test a loop that never retried would."""
    policy = ProductionPollingPolicy()
    assert_same_draws(policy, seed=11, draws=200)
    rng = Rng(11, "poll")
    for _ in range(200):
        policy.next_interval(rng)
    three_per_draw = random.Random(Rng(11, "poll").seed)
    for _ in range(3 * 200):
        three_per_draw.random()
    assert rng._random.getstate() != three_per_draw.getstate()


def test_the_inflation_branch_draws_its_uniform():
    inflated = ProductionPollingPolicy(inflation_prob=1.0, inflation_min=3.0, inflation_max=6.0)
    assert_same_draws(inflated, seed=3, draws=300)
    plain = ProductionPollingPolicy(inflation_prob=0.0)
    a, b = Rng(3), Rng(3)
    assert inflated.next_interval(a) != plain.next_interval(b)
    assert a._random.getstate() != b._random.getstate()  # one more random()


def test_a_tie_with_the_minimum_returns_the_minimum():
    """``max(minimum, interval)`` returns ``minimum`` when they are equal:
    with ``median=1, sigma=0`` the draw is ``exp(0.0) == 1.0`` and an int
    ``minimum=1`` comes back as the int."""
    policy = ProductionPollingPolicy(median=1, sigma=0.0, inflation_prob=0.0, minimum=1)
    value = policy.next_interval(Rng(5))
    assert value == oracle_interval(policy, Rng(5)) == 1
    assert type(value) is int


# -- NaN and ±inf are refused where they enter the poll path ---------------------------


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ProductionPollingPolicy(median=NAN), "median"),
        (lambda: ProductionPollingPolicy(median=INF), "median"),
        (lambda: ProductionPollingPolicy(sigma=NAN), "sigma"),
        (lambda: ProductionPollingPolicy(sigma=INF), "sigma"),
        (lambda: ProductionPollingPolicy(minimum=NAN), "minimum"),
        (lambda: ProductionPollingPolicy(minimum=INF), "minimum"),
        (lambda: ProductionPollingPolicy(inflation_min=NAN), "inflation_min"),
        (lambda: ProductionPollingPolicy(inflation_max=INF), "inflation_max"),
        (lambda: FixedPollingPolicy(NAN), "interval"),
        (lambda: FixedPollingPolicy(INF), "interval"),
        (lambda: AdaptivePollingPolicy(jitter=NAN), "jitter"),
        (lambda: AdaptivePollingPolicy(slow=INF), "slow"),
    ],
    ids=[
        "median-nan", "median-inf", "sigma-nan", "sigma-inf", "minimum-nan",
        "minimum-inf", "inflation_min-nan", "inflation_max-inf", "fixed-nan",
        "fixed-inf", "adaptive-jitter-nan", "adaptive-slow-inf",
    ],
)
def test_a_policy_refuses_a_non_finite_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_a_nan_poll_delay_is_refused_before_the_heap_or_the_wake_change():
    engine = StubEngine()
    scheduler = engine._scheduler
    armed, other = engine.add_runtime(1), engine.add_runtime(2)
    scheduler.schedule(armed, 5.0)
    wake, heap, gen = scheduler._wake, list(scheduler._heap), other.poll_gen
    with pytest.raises(ValueError, match="delay"):
        scheduler.schedule(other, NAN)
    assert scheduler._wake is wake and not wake.canceled
    assert scheduler._heap == heap
    assert (other.poll_gen, other.poll_scheduled) == (gen, False)
    engine.sim.run()
    assert engine.fired == [(5.0, 1)]  # the unrelated wake still fires


def test_a_nan_request_timeout_is_refused_before_anything_is_counted():
    network = Network(Simulator(), Rng(1))
    client = network.add_node(HttpNode(Address("client.test")))
    network.add_node(HttpNode(Address("server.test")))
    network.connect(client.address, Address("server.test"), FixedLatency(0.1))
    with pytest.raises(ValueError, match="timeout"):
        client.request(Address("server.test"), "GET", "/", on_response=print, timeout=NAN)
    assert client.requests_issued == 0
    assert client._pending == {}
    assert network.sim.pending == 0


# -- the simulator's cancel bookkeeping == the rule -----------------------------------


class _RuleSimulator(Simulator):
    """The cancel hook as it read before the rule moved into it: count,
    then always enter the compaction helper."""

    def _note_canceled(self) -> None:
        self._live -= 1
        self._dead += 1
        self._maybe_compact()


class _CountingSimulator(Simulator):
    """Counts how often the compaction helper is entered from a cancel."""

    def __init__(self) -> None:
        super().__init__()
        self.compact_calls = 0

    def _maybe_compact(self) -> None:
        self.compact_calls += 1
        super()._maybe_compact()


def _bookkeeping(sim: Simulator):
    return sim.pending, sim._dead, len(sim._heap), sim.fired_count, sim.now


_storm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(1, 40), st.floats(0.0, 10.0)),
        st.tuples(st.just("cancel"), st.integers(0, 2**16), st.integers(1, 40)),
        st.tuples(st.just("run"), st.floats(0.0, 5.0), st.just(0)),
        st.tuples(st.just("step"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(ops=_storm_ops)
def test_cancel_storms_keep_the_bookkeeping_of_the_rule(ops):
    """Schedule / cancel / run / step storms, with the dead-entry floor
    lowered to 4 so the rebuild actually happens: ``pending``, the dead
    count, the heap length and the fire order stay those of the old hook
    after every operation."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "COMPACT_MIN_DEAD", 4)
        sims = [Simulator(), _RuleSimulator()]
        logs = [[], []]
        events = [[], []]
        for op, a, b in ops:
            for sim, log, handles in zip(sims, logs, events):
                if op == "schedule":
                    for i in range(a):
                        handles.append(sim.schedule(b * i / a, log.append, (sim.now, i)))
                elif op == "cancel" and handles:
                    for k in range(b):
                        handles[(a + 7919 * k) % len(handles)].cancel()
                elif op == "run":
                    sim.run_until(sim.now + a)
                elif op == "step":
                    sim.step()
            assert _bookkeeping(sims[0]) == _bookkeeping(sims[1])
        assert logs[0] == logs[1]


def test_the_compaction_trigger_is_the_rule_and_nothing_else():
    """3,000 live events, cancelled one by one: the heap is rebuilt at the
    cancel where dead entries reach ``COMPACT_MIN_DEAD`` *and* outnumber
    the live ones (the 1,501st), and the helper is entered only then."""
    assert simulator_module.COMPACT_MIN_DEAD == 1024
    sim = _CountingSimulator()
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(3000)]
    for k, event in enumerate(handles[:2000], start=1):
        event.cancel()
        if k < 1501:
            assert (sim.pending, sim._dead, len(sim._heap)) == (3000 - k, k, 3000)
            assert sim.compact_calls == 0
        elif k == 1501:
            assert (sim.pending, sim._dead, len(sim._heap)) == (1499, 0, 1499)
            assert sim.compact_calls == 1
    assert (sim.pending, sim._dead, len(sim._heap)) == (1000, 499, 1499)
    assert sim.compact_calls == 1
    handles[0].cancel()  # idempotent: nothing is counted twice
    assert (sim.pending, sim._dead) == (1000, 499)
    assert sim.run() == 1000


# -- HeapPollScheduler == the helper-frame scheduler ----------------------------------


#: The compaction floor both schedulers run with below, so that small
#: drawn storms cross it.
COMPACT_FLOOR = 4


class _HelperScheduler(HeapPollScheduler):
    """The scheduler before its wake re-arm and compaction test were
    folded into ``schedule`` / ``cancel`` / ``_fire``: every push goes
    through ``_arm_wake``, every wake and cancel through
    ``_maybe_compact``."""

    def schedule(self, runtime, delay, initial=False):
        if delay < 0:
            raise ValueError(f"cannot schedule a poll into the past (delay={delay})")
        if runtime.poll_scheduled:
            self.stale_entries += 1
        runtime.poll_gen += 1
        runtime.poll_scheduled = True
        sim = self._sim
        if sim is None:
            sim = self._sim = self.engine.sim
        due = sim._now + delay
        heappush(self._heap, (due, next(self._seq), runtime, runtime.poll_gen))
        self._arm_wake(due)

    def cancel(self, runtime):
        if runtime.poll_scheduled:
            runtime.poll_scheduled = False
            runtime.poll_gen += 1
            self.stale_entries += 1
            self._maybe_compact()

    def _arm_wake(self, due):
        if self._firing:
            return
        wake = self._wake
        if wake is not None:
            if wake.time <= due:
                return
            wake.cancel()
        self._wake = self._sim.schedule_at(due, self._fire, label="poll-wake")

    def _fire(self):
        self._wake = None
        self.wakes += 1
        now = self._sim._now
        heap = self._heap
        batch = 0
        self._firing = True
        try:
            while heap and heap[0][0] <= now:
                _, _, runtime, gen = heappop(heap)
                if runtime.poll_gen != gen:
                    self.stale_entries -= 1
                    continue
                runtime.poll_scheduled = False
                batch += 1
                self.engine._poll(runtime)
        finally:
            self._firing = False
        self.batched_polls += batch
        if heap:
            self._arm_wake(heap[0][0])
        self._maybe_compact()

    def _maybe_compact(self):
        heap = self._heap
        if len(heap) < COMPACT_FLOOR or self.stale_entries * 2 < len(heap):
            return
        kept = [entry for entry in heap if entry[2].poll_gen == entry[3]]
        heapify(kept)
        self._heap = kept
        self.stale_entries = 0
        self.compactions += 1


class _ReschedulingEngine(StubEngine):
    """A stub whose polls reschedule: every third one in the batch, from
    inside the wake, at a drawn delay (the mid-batch path)."""

    def __init__(self, scheduler, delays):
        super().__init__(scheduler)
        self.delays = delays

    def _poll(self, runtime):
        super()._poll(runtime)
        if len(self.fired) % 3 == 0:
            delay = self.delays[len(self.fired) % len(self.delays)]
            self._scheduler.schedule(runtime, delay)


def _scheduler_state(engine: StubEngine):
    scheduler = engine._scheduler
    wake = scheduler._wake
    return (
        scheduler.stats(),
        None if wake is None else (wake.time, wake.seq),
        engine.sim.pending,
        engine.sim._dead,
    )


@pytest.mark.parametrize("scheduler", [HeapPollScheduler, _HelperScheduler])
def test_exactly_half_stale_compacts_after_a_wake_and_on_a_cancel(scheduler):
    """The rule's edge, on both schedulers: a heap of at least the floor
    whose entries are exactly half stale is rebuilt — at the end of a
    wake, and on a cancel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.scheduler.COMPACT_MIN_ENTRIES", COMPACT_FLOOR)
        engine = StubEngine(scheduler)
        runtimes = [engine.add_runtime(i) for i in range(8)]
        for i, runtime in enumerate(runtimes[:6]):
            engine._scheduler.schedule(runtime, 10.0 + i)
        for i, runtime in enumerate(runtimes[:6]):
            engine._scheduler.schedule(runtime, 30.0 + i)  # six stale entries
        engine._scheduler.schedule(runtimes[7], 1.0)
        engine.sim.run_until(1.0)  # 12 entries left, 6 stale: rebuilt
        stats = engine._scheduler.stats()
        assert (stats["compactions"], stats["heap_entries"]) == (1, 6)
        engine._scheduler.schedule(runtimes[0], 40.0)
        engine._scheduler.schedule(runtimes[1], 41.0)
        engine._scheduler.schedule(runtimes[6], 42.0)  # 9 entries, 2 stale
        engine._scheduler.cancel(runtimes[2])  # 9 entries, 3 stale: kept
        assert engine._scheduler.stats()["compactions"] == 1
        engine._scheduler.cancel(runtimes[3])  # 9 entries, 4 stale: kept
        engine._scheduler.schedule(runtimes[3], 43.0)  # 10 entries, 4 stale
        engine._scheduler.cancel(runtimes[4])  # 10 entries, 5 stale: rebuilt
        stats = engine._scheduler.stats()
        assert (stats["compactions"], stats["heap_entries"]) == (2, 5)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), st.integers(0, 11), st.floats(0.0, 20.0)),
            st.tuples(st.just("cancel"), st.integers(0, 11), st.just(0.0)),
            st.tuples(st.just("run"), st.just(0), st.floats(0.0, 10.0)),
        ),
        max_size=60,
    ),
    delays=st.lists(st.floats(0.0, 15.0), min_size=1, max_size=5),
)
def test_the_scheduler_fires_and_rearms_as_the_helper_scheduler(ops, delays):
    """Drawn schedule / cancel / run sequences over twelve applets, with
    polls that reschedule from inside their wake: the same polls fire at
    the same instants, and the wake (its time and its simulator sequence
    number), the stats and the kernel's live and dead counts match after
    every operation."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.scheduler.COMPACT_MIN_ENTRIES", COMPACT_FLOOR)
        engines = [
            _ReschedulingEngine(HeapPollScheduler, delays),
            _ReschedulingEngine(_HelperScheduler, delays),
        ]
        runtimes = [[engine.add_runtime(i) for i in range(12)] for engine in engines]
        for op, index, value in ops:
            for engine, mine in zip(engines, runtimes):
                if op == "schedule":
                    engine._scheduler.schedule(mine[index], value)
                elif op == "cancel":
                    engine._scheduler.cancel(mine[index])
                else:
                    engine.sim.run_until(engine.sim.now + value)
            assert _scheduler_state(engines[0]) == _scheduler_state(engines[1])
            assert engines[0].fired == engines[1].fired
        for engine in engines:
            engine.sim.run_until(engine.sim.now + 100.0)
        assert engines[0].fired == engines[1].fired
        assert _scheduler_state(engines[0]) == _scheduler_state(engines[1])


# -- no lambda or closure behind a request or a breaker --------------------------------


def _is_lambda_or_closure(callback) -> bool:
    """Whether ``callback`` is, or wraps, a lambda or a nested function."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    if isinstance(callback, types.MethodType):
        callback = callback.__func__
    if isinstance(callback, types.FunctionType):
        return (
            callback.__name__ == "<lambda>"
            or callback.__closure__ is not None
            or "<locals>" in callback.__qualname__
        )
    return False


def _misfit_contexts(engine) -> list:
    """The ``(callback, context)`` of every request the engine waits on
    whose context is not the one its callback takes: a poll's applet
    runtime, an action's record (first send, retry or unbatched replay),
    a query's ``(runtime, event, remaining, results)``, a replay batch's
    ``(link, records)``."""
    replay = engine.replay
    takes = [
        (engine._on_poll_response, lambda c: isinstance(c, _AppletRuntime)),
        (engine._on_action_result, lambda c: isinstance(c, PendingAction)),
        (engine._on_query_response, lambda c: (
            isinstance(c, tuple) and len(c) == 4 and isinstance(c[0], _AppletRuntime)
            and isinstance(c[2], list) and isinstance(c[3], dict)
        )),
    ]
    if replay is not None:
        takes += [
            (replay._on_single_result, lambda c: isinstance(c, PendingAction)),
            (replay._on_batch_result, lambda c: (
                isinstance(c, tuple) and len(c) == 2
                and isinstance(c[0], ServiceRegistration)
                and all(isinstance(record, PendingAction) for record in c[1])
            )),
        ]
    return [
        (callback, context)
        for callback, _, _, context in engine._pending.values()
        if not any(callback == method and fits(context) for method, fits in takes)
    ]


def test_request_callbacks_are_bound_methods_and_breaker_hooks_partials():
    """A fleet stepped while its polls and its actions are in flight: every
    callback the engine waits on is a bound method that the request holds
    the context of, and every breaker hook is a ``functools.partial`` of
    a bound method."""
    world = FleetWorld(
        200, EngineConfig(initial_poll_jitter=30.0), seed=3,
        with_trace=False, with_metrics=False, shared_user=True,
    )
    world.publish("photo-0")  # after the warm-up: every identity is registered
    engine = world.engine
    kinds = set()
    for _ in range(10_000):
        assert _misfit_contexts(engine) == []
        kinds = {
            callback.__func__.__name__
            for callback, _, _, _ in engine._pending.values()
            if isinstance(callback, types.MethodType)
        }
        if {"_on_poll_response", "_on_action_result"} <= kinds:
            break
        assert world.sim.step()
    assert {"_on_poll_response", "_on_action_result"} <= kinds
    callbacks = [callback for callback, _, _, _ in engine._pending.values()]
    assert all(isinstance(callback, types.MethodType) for callback in callbacks)
    hooks = [
        link.breaker.on_transition
        for link in engine._services.values()
        if link.breaker is not None
    ]
    assert hooks and all(isinstance(hook, functools.partial) for hook in hooks)
    offenders = [cb for cb in callbacks + hooks if _is_lambda_or_closure(cb)]
    assert offenders == []


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "single"])
@pytest.mark.parametrize("scenario", ["outage", "partition"])
def test_timeouts_refusals_and_replays_each_pop_their_own_context(scenario, batching):
    """Chaos scenarios with replay: polls and actions fail, time out or are
    refused, and dead letters replay in batches or one by one.  Each time
    a request leaves, every request the engine waits on holds the
    context its callback takes, and every reply brings back its own (a
    wrong one would raise or lose an action)."""
    world = ChaosWorld(seed=7, replay=ReplayPolicy(batching=batching))
    (engine,) = world.engines
    issue, kinds = engine.request, set()

    def checked_request(*args, **kwargs):
        request = issue(*args, **kwargs)
        entry = engine._pending.get(request.request_id)  # a refusal pops it at once
        if entry is not None:
            kinds.add(entry[0].__func__.__name__)
        assert _misfit_contexts(engine) == []
        return request

    engine.request = checked_request
    result = world.run(chaos_scenario(scenario))
    assert engine.poll_failures + engine.action_failures > 0
    assert result.actions_silently_lost == 0
    assert {"_on_poll_response", "_on_action_result"} <= kinds
    if scenario == "outage":    # the partition dead-letters nothing to replay
        assert ("_on_batch_result" if batching else "_on_single_result") in kinds
    assert _misfit_contexts(engine) == []


def test_the_checker_catches_lambdas_and_closures():
    def outer():
        value = 1

        def inner(response):
            return value

        return inner

    assert _is_lambda_or_closure(lambda response: None)
    assert _is_lambda_or_closure(functools.partial(lambda a, b: None, 1))
    assert _is_lambda_or_closure(outer())
    assert not _is_lambda_or_closure(functools.partial(HttpNode.request, None))
    assert not _is_lambda_or_closure(Simulator().step)


# -- frames per poll -----------------------------------------------------------------


#: ``repro`` Python-function calls per poll in the ``fleet_poll`` shape,
#: measured on the code that arms one HTTP timeout per node: 48.36 here
#: (49.14 with a timeout event per request), 45.13 on the ledger's
#: 20,000-applet run (49.12), where the engine is never idle.  A helper
#: frame that comes back on the poll path pushes the count over this
#: budget.
FRAMES_PER_POLL_BUDGET = 48.7


def test_a_poll_runs_within_its_frame_budget():
    """``sys.setprofile`` counts the ``repro`` Python frames entered while
    a 500-applet fleet in the ``fleet_poll`` shape — jittered first
    polls, no metrics, no trace — polls for 250 simulated seconds."""
    package = str(Path(repro.__file__).parent)
    world = FleetWorld(
        500, EngineConfig(initial_poll_jitter=120.0), seed=7,
        with_trace=False, with_metrics=False, shared_user=True, warmup=False,
    )
    polls_before = world.engine.polls_sent
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames += 1

    sys.setprofile(profile)
    try:
        world.sim.run_until(250.0)
    finally:
        sys.setprofile(None)
    polls = world.engine.polls_sent - polls_before
    assert polls > 500
    per_poll = frames / polls
    assert per_poll <= FRAMES_PER_POLL_BUDGET, (
        f"{per_poll:.2f} repro frames per poll, budget {FRAMES_PER_POLL_BUDGET}"
    )


def test_a_busy_node_arms_almost_no_timeouts(monkeypatch):
    """In the ``fleet_poll`` shape at the ledger's 20,000 applets the
    engine always has polls in flight, so it arms an ``http-timeout``
    event for under 1 % of its requests, not one per request (5,000
    applets idle it between polls often enough to arm one per seven)."""
    world = FleetWorld(
        20_000, EngineConfig(initial_poll_jitter=120.0), seed=7,
        with_trace=False, with_metrics=False, shared_user=True, warmup=False,
    )
    sim = world.sim
    labels = []
    schedule_at = sim.schedule_at

    def counting(time, callback, *args, label=None, **kwargs):
        labels.append(label)
        return schedule_at(time, callback, *args, label=label, **kwargs)

    monkeypatch.setattr(sim, "schedule_at", counting)
    sim.run_until(60.0)
    requests = world.engine.requests_issued
    assert requests > 5_000
    assert labels.count("http-timeout") <= 0.01 * requests
