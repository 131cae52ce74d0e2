"""Unit tests for the discrete-event kernel (events + simulator)."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Event, SimulationError, Simulator
from repro.simcore.simulator import COMPACT_MIN_DEAD
from tests.helpers import live_scan


class TestEvent:
    def test_orders_by_time(self):
        early = Event(1.0, lambda: None, seq=1)
        late = Event(2.0, lambda: None, seq=0)
        assert early < late

    def test_same_time_orders_by_priority_then_seq(self):
        first = Event(1.0, lambda: None, priority=0, seq=1)
        second = Event(1.0, lambda: None, priority=1, seq=0)
        assert first < second
        a = Event(1.0, lambda: None, seq=0)
        b = Event(1.0, lambda: None, seq=1)
        assert a < b  # FIFO via sequence numbers

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-0.1, lambda: None, seq=0)

    def test_cancel_prevents_fire(self):
        fired = []
        event = Event(0.0, lambda: fired.append(1), seq=0)
        event.cancel()
        event.fire()
        assert fired == []
        assert event.canceled

    def test_cancel_is_idempotent(self):
        event = Event(0.0, lambda: None, seq=0)
        event.cancel()
        event.cancel()
        assert event.canceled

    def test_fire_passes_args(self):
        got = []
        Event(0.0, lambda a, b: got.append((a, b)), args=(1, 2), seq=0).fire()
        assert got == [(1, 2)]

    def test_seq_is_required(self):
        # no process-global fallback: the owning simulator numbers its heap
        with pytest.raises(TypeError):
            Event(1.0, lambda: None)

    def test_repr_mentions_label(self):
        assert "poll" in repr(Event(1.0, lambda: None, label="poll", seq=0))


class TestSimulator:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0
        assert sim.pending == 0

    def test_run_executes_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        fired = sim.run()
        assert order == ["a", "b", "c"]
        assert fired == 3
        assert sim.now == 3.0

    def test_same_time_fifo(self, sim):
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["x", "y", "z"]

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_nan_rejected(self, sim):
        # NaN compares false both ways; it must not slip in ahead of every event.
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_run_until_advances_clock_to_target(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_events_can_schedule_events(self, sim):
        result = []

        def outer():
            sim.schedule(1.0, lambda: result.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert result == [2.0]

    def test_cancel_via_returned_handle(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or fired == [1]  # tuple from lambda
        assert sim.pending == 1

    def test_max_events_bounds_run(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        fired = sim.run(max_events=25)
        assert fired == 25

    def test_pending_ignores_canceled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_fired_count_accumulates(self, sim):
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.fired_count == 2

    def test_priority_breaks_time_tie(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=5)
        sim.schedule(1.0, lambda: order.append("high"), priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_zero_delay_runs_now(self, sim):
        sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: result.append(sim.now)))
        result = []
        sim.run()
        assert result == [5.0]


# -- property: the tuple heap, compaction and the fused loop keep the contract --


PENDING, FIRED, CANCELED = range(3)
#: A timer nothing ever reaches: cancelled up front, it must not move the clock.
FAR_FUTURE = 10_000.0


class _KernelRun:
    """One random schedule driven through a Simulator beside a naive oracle.

    Half the priority-0 entries are ``call_at`` entries (one argument, no
    ``Event``, cancelled by their ``seq``), mixed with events in the one
    heap.  The oracle is a second lazy-deletion heap of ``(time,
    priority, schedule order)`` keys that is never compacted; every
    callback checks that the simulator fired exactly the oracle's next
    live entry.  All cancels go through :meth:`cancel`, which keeps the
    test's own live count and spots compactions (a cancel shrinks the
    heap only then).
    """

    def __init__(self, seed: int, initial: int = 1500, budget: int = 16000) -> None:
        self.rnd = random.Random(seed)
        self.sim = Simulator()
        self.budget = budget
        self.oracle = []  # (time, priority, ident): ident is schedule order
        self.events = []  # ident -> Event, or a call_at entry's seq
        self.times = []  # ident -> due time
        self.state = []  # ident -> PENDING / FIRED / CANCELED
        self.fired = []
        self.live = 0
        self.clock = 0.0
        self.compactions = 0
        self.stopped = False
        for _ in range(initial):
            self.schedule(self.rnd.randrange(200) * 0.25, self.rnd.choice(
                ("plain", "request", "request", "request", "cancel", "stop")
            ))
        self.cancel(self.schedule(FAR_FUTURE, "plain"))
        for ident in self.rnd.sample(range(initial), initial // 10):
            self.cancel(ident)
            if ident % 3 == 0:
                self.cancel(ident)  # double cancel

    def schedule(self, delay: float, behaviour, priority=None) -> int:
        ident = len(self.events)
        if priority is None:
            priority = self.rnd.choice((-1, 0, 0, 1))
        when = self.sim.now + delay
        if priority == 0 and self.rnd.random() < 0.5:
            handle = self.sim.call_at(when, self.on_call, (ident, behaviour))
        else:
            handle = self.sim.schedule(delay, self.on_fire, ident, behaviour, priority=priority)
            assert handle.time == when
        heapq.heappush(self.oracle, (when, priority, ident))
        self.events.append(handle)
        self.times.append(when)
        self.state.append(PENDING)
        self.live += 1
        return ident

    def cancel(self, ident: int) -> None:
        entries = len(self.sim._heap)
        handle = self.events[ident]
        if isinstance(handle, int):
            # a call's seq is a handle only while the call is live
            if self.state[ident] == PENDING:
                self.sim.cancel_call(handle)
        else:
            handle.cancel()
        if self.state[ident] == PENDING:
            self.state[ident] = CANCELED
            self.live -= 1
        if len(self.sim._heap) < entries:
            self.compactions += 1
        self.check_counters()

    def next_live(self):
        """The oracle's next live ``(time, priority, ident)``, or ``None``."""
        while self.oracle and self.state[self.oracle[0][2]] != PENDING:
            heapq.heappop(self.oracle)
        return self.oracle[0] if self.oracle else None

    def check_counters(self) -> None:
        assert self.sim.pending == self.live
        assert len(self.sim._heap) <= self.live + max(COMPACT_MIN_DEAD, self.live)

    def check_scan(self) -> None:
        scan = live_scan(self.sim)
        assert self.sim.pending == scan == self.live
        assert self.sim._dead == len(self.sim._heap) - scan
        self.check_counters()

    def on_call(self, args) -> None:
        self.on_fire(*args)

    def on_fire(self, ident: int, behaviour) -> None:
        sim, rnd = self.sim, self.rnd
        when, priority, expected = heapq.heappop(self.oracle) if self.next_live() else (None,) * 3
        assert ident == expected, "fired out of (time, priority, schedule) order"
        assert sim.now == when == self.times[ident] >= self.clock
        self.clock = when
        self.state[ident] = FIRED
        self.fired.append(ident)
        self.live -= 1
        if behaviour == "request":
            # the HTTP pattern: a far timer, cancelled by a near response
            timer = self.schedule(30.0 + rnd.randrange(8) * 0.25, "plain")
            follow = "request" if len(self.events) < self.budget and rnd.random() < 0.9 else "plain"
            # a same-instant response must not outrank the event firing now
            self.schedule(rnd.randrange(5) * 0.25, ("respond", timer, follow),
                          priority=max(priority, rnd.choice((-1, 0, 1))))
        elif behaviour == "cancel":
            # any state: pending, already fired (late cancel), already canceled
            for victim in rnd.sample(range(len(self.events)), 4):
                self.cancel(victim)
        elif behaviour == "stop":
            self.stopped = True
            sim.stop()
        elif isinstance(behaviour, tuple):
            _, timer, follow = behaviour
            self.cancel(timer)
            if follow == "request":
                self.schedule(rnd.randrange(1, 9) * 0.25, "request")
        self.check_counters()

    def drive(self) -> None:
        """Random resumable chunks until drained; every chunk re-checked."""
        sim, rnd = self.sim, self.rnd
        while sim.pending:
            self.stopped = False
            before = len(self.fired)
            mode = rnd.randrange(4)
            if mode == 0:
                assert sim.step() is True
            elif mode == 1:
                cap = rnd.randrange(150)
                assert sim.run(max_events=cap) == len(self.fired) - before <= cap
            else:
                horizon = sim.now + rnd.randrange(24) * 0.25
                cap = None if mode == 2 else rnd.randrange(1, 150)
                result = sim.run_until(horizon, max_events=cap)
                assert result == len(self.fired) - before
                upcoming = self.next_live()
                if result.completed:
                    assert upcoming is None or upcoming[0] > horizon
                    self.clock = horizon
                else:
                    # cut short with work left (or stopped): the clock stays
                    # with the last fired event so the next chunk resumes
                    assert self.stopped or (len(self.fired) - before == cap
                                            and upcoming[0] <= horizon)
            assert sim.now == self.clock
            self.check_scan()


class TestKernelProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_schedules_with_cancels_through_compactions(self, seed):
        run = _KernelRun(seed)
        run.check_scan()
        run.drive()
        sim = run.sim
        # (i) exactly the never-cancelled events fired, in oracle order
        assert PENDING not in run.state
        assert len(run.events) >= 3000
        assert sim.fired_count == len(run.fired) == run.state.count(FIRED)
        # (ii) the heap was rebuilt, repeatedly, without losing an entry
        assert run.compactions >= 3
        # (iii) a drained run() fires nothing, sheds the dead far-future
        # timer and leaves the clock at the last fired event
        assert sim.run() == 0
        assert sim._heap == []
        assert sim.now == run.clock < FAR_FUTURE
        # (iv) call_at entries were fired and cancelled among the events,
        # and no dead one is left on the kernel's books
        calls = [ident for ident, handle in enumerate(run.events) if isinstance(handle, int)]
        assert {run.state[ident] for ident in calls} == {FIRED, CANCELED}
        assert sim._dead_calls == set()


class TestCallAt:
    def test_fires_its_one_argument_in_scheduling_order_among_events(self, sim):
        order = []
        sim.call_at(2.0, order.append, "call-2")
        sim.schedule(1.0, order.append, "event-1")
        seq = sim.call_at(1.0, order.append, "call-1")
        sim.schedule_at(1.0, order.append, "event-1b")
        assert isinstance(seq, int) and sim.pending == 4
        assert sim.peek_time() == 1.0
        assert sim.run() == 4
        assert order == ["event-1", "call-1", "event-1b", "call-2"]

    def test_a_cancelled_call_is_skipped_and_counted_dead(self, sim):
        fired = []
        dead = sim.call_at(1.0, fired.append, "dead")
        sim.call_at(2.0, fired.append, "live")
        sim.cancel_call(dead)
        assert (sim.pending, sim._dead, live_scan(sim)) == (1, 1, 1)
        assert sim.peek_time() == 2.0  # the dead entry is dropped from the top
        assert (sim._dead, sim._dead_calls) == (0, set())
        assert sim.step() is True
        assert fired == ["live"] and sim.now == 2.0
        assert sim.step() is False

    def test_refuses_the_past_and_nan(self, sim):
        sim.run_until(5.0)
        for when in (4.0, float("nan")):
            with pytest.raises(SimulationError):
                sim.call_at(when, print, None)
        assert sim.pending == 0
