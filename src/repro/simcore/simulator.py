"""The event-heap simulator driving all experiments."""

from __future__ import annotations

import gc
import heapq
import itertools
import time as _wall  # "time" is a parameter name in run_until
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.obs.bound import Bound
from repro.simcore.event import Event

#: Canceled entries a heap may carry before :meth:`Simulator._maybe_compact`
#: considers a rebuild (``HeapPollScheduler``'s stale-majority rule: they
#: must also outnumber the live ones, so a rebuild is amortised O(1) per
#: cancel and a mostly-live heap is never rebuilt).  The cancels are
#: re-armed wakes and timeouts (an HTTP node's goes when its last
#: request in flight is answered), retry timers of a removed applet and
#: a stopped scenario's drivers.
COMPACT_MIN_DEAD = 1024

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a block that only allocates.

    For the long bursts that build a world (a fleet's install loop): every
    pass the allocation count triggers walks everything built so far and
    frees nothing.  The collector is put back the way the caller had it,
    also when the block raises — :meth:`Simulator._fire_until`'s contract,
    which keeps its own inline form (a generator context manager costs
    ~1.3 µs an entry, and an epoch-stepped world enters the run loop tens
    of thousands of times).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class RunResult(int):
    """The event count a :meth:`Simulator.run_until` call fired, plus state.

    Behaves exactly like the plain ``int`` the method used to return, so
    existing callers keep working; ``completed`` additionally reports
    whether the horizon was actually drained (``False`` when the run broke
    on ``max_events`` or :meth:`Simulator.stop` with live events still
    pending at ``t <= time``) — the signal callers need to resume instead
    of trusting a clock that must not have advanced.
    """

    def __new__(cls, fired: int, completed: bool) -> "RunResult":
        self = super().__new__(cls, fired)
        self.completed = completed
        return self


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns a binary heap of ``(time, priority, seq, event)``
    entries — one per scheduled :class:`~repro.simcore.event.Event`, in
    the event's own ``__lt__`` order — and a virtual clock ``now``
    (seconds, float).  Time only moves when events fire; between events
    nothing happens, so simulated experiments that span days of virtual
    time run in milliseconds.

    Example
    -------
    >>> sim = Simulator()
    >>> order = []
    >>> sim.schedule(2.0, lambda: order.append("b"))
    >>> sim.schedule(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Entries are tuples so heap sifts compare in C; ``seq`` is unique
        # per simulator, so a comparison never reaches the event itself.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._running = False
        self._stopped = False
        self._fired_count = 0
        self._live = 0  # scheduled, not yet fired, not canceled
        self._dead = 0  # canceled, still in the heap
        # Per-simulator event sequence: same-instant FIFO order needs only
        # per-heap monotonicity, and independent counters keep one shard's
        # tie order (repro.simcore.parallel) from depending on how many
        # events another shard scheduled.
        self._seq = itertools.count()
        #: The world's trigger-event id source (``TriggerEvent.event_id``,
        #: the protocol's ``meta.id``), drawn by every service attached
        #: to this simulator; one per world, so two worlds built in one
        #: process mint the same ids.  The shards of a
        #: :class:`~repro.simcore.parallel.ShardedSimulator` share one.
        self.event_ids = itertools.count(1)
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: every run reports events fired, simulated time, and the
        #: wall-clock event rate.  Attached post-construction; all the
        #: kernel imports from above is the dependency-free ``Bound`` that
        #: holds its four instruments (an epoch-stepped world reports a
        #: run per shard per epoch).
        self.metrics = None
        self._bound = Bound("sim")

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-canceled) events still scheduled.

        An HTTP node with requests in flight holds one armed timeout here,
        not one per request.  O(1): a counter maintained on
        schedule/fire/cancel, not a heap scan — reporting loops may poll
        it freely at million-entry heaps (``tests/test_simcore_simulator.py``
        pins equality with the scan).
        """
        return self._live

    def peek_time(self) -> Optional[float]:
        """Absolute time of the next live event, or ``None`` when drained.

        The epoch hook :class:`repro.simcore.parallel.ShardedSimulator`
        uses to pick conservative barrier times.
        """
        event = self._peek()
        return None if event is None else event.time

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired so far."""
        return self._fired_count

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at the absolute simulation time ``time``."""
        if not time >= self._now:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot schedule at t={time} < now={self._now}")
        seq = next(self._seq)
        event = Event(time, callback, args, priority, label, seq=seq)
        event._owner = self
        heapq.heappush(self._heap, (event.time, priority, seq, event))
        self._live += 1
        return event

    def _note_canceled(self) -> None:
        """:meth:`Event.cancel`'s ledger hook for an event still in the heap.

        Once per re-armed wake or timeout (an HTTP node disarms when its
        last request in flight is answered), so the rule of
        :meth:`_maybe_compact` is tested here and the rebuild entered only
        when it holds.
        """
        live = self._live = self._live - 1
        dead = self._dead = self._dead + 1
        if dead >= COMPACT_MIN_DEAD and dead > live:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap without its canceled entries once they dominate.

        Checked whenever the live share shrinks (a cancel, a fire): once
        canceled entries number at least :data:`COMPACT_MIN_DEAD` *and*
        outnumber the live ones they are dropped, so the heap never holds
        more than ``live + max(COMPACT_MIN_DEAD, live)`` entries.  A
        schedule-then-cancel pattern far from the heap top (a re-armed
        timeout, an idle node's disarmed one) otherwise keeps its dead
        entries resident until their time comes, and every sift pays for
        their depth.  The rebuild is in place (the run loop holds the
        list) and keeps the entry tuples, so pop order is unchanged by
        construction.
        """
        if self._dead >= COMPACT_MIN_DEAD and self._dead > self._live:
            heap = self._heap
            heap[:] = [entry for entry in heap if not entry[3]._canceled]
            heapq.heapify(heap)
            self._dead = 0

    def step(self) -> bool:
        """Fire the next non-canceled event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        event = self._peek()
        if event is None:
            return False
        heapq.heappop(self._heap)
        if event.time < self._now:
            raise SimulationError("event heap corrupted: time went backwards")
        self._now = event.time
        self._fired_count += 1
        self._live -= 1
        self._maybe_compact()
        event._owner = None  # see _fire_until
        event.fire()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the heap drains (or ``max_events`` fire).

        Returns the number of events fired by this call.  ``max_events``
        guards against runaway feedback loops (the testbed's infinite-loop
        experiments rely on it).
        """
        return self._fire_until(_INF, max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> RunResult:
        """Run events with ``event.time <= time``; then advance the clock to ``time``.

        Returns a :class:`RunResult` — the number of events fired, plus a
        ``completed`` flag.  The clock only advances to ``time`` when the
        horizon was actually drained: a run that broke on ``max_events``
        (or :meth:`stop`) with live events still pending at ``t <= time``
        leaves ``now`` at the last fired event, so a follow-up
        :meth:`step`/:meth:`run_until` resumes instead of raising
        ``SimulationError("event heap corrupted: time went backwards")``.
        """
        if not time >= self._now:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot run until t={time} < now={self._now}")
        fired = self._fire_until(time, max_events)
        # The fire loop drops cancelled entries before it breaks, so the
        # top of the heap, if any, is the next live event.
        heap = self._heap
        completed = not self._stopped and (not heap or heap[0][0] > time)
        if completed and time > self._now:
            self._now = time
        return RunResult(fired, completed)

    def _fire_until(self, horizon: float, max_events: Optional[int]) -> int:
        """The kernel loop: fire live events with ``time <= horizon`` in order.

        One fused peek/pop/fire loop shared by :meth:`run` (infinite
        horizon) and :meth:`run_until`; stops early on ``max_events`` or
        :meth:`stop`.  Returns the number of events fired.

        The cyclic garbage collector is paused while the loop runs and put
        back the way the caller had it.  What a run allocates and drops —
        events, messages, requests, responses — is acyclic and freed by
        reference counting alone (``tests/test_gc_pause.py`` pins that a
        collector-less run leaves nothing for ``gc.collect()`` to find),
        while every collector pass the allocation rate triggers walks the
        whole long-lived world for nothing.
        """
        heap = self._heap
        heappop = heapq.heappop
        limit = _INF if max_events is None else max_events
        fired = 0
        self._running = True
        self._stopped = False
        started = _wall.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event._canceled:
                    heappop(heap)
                    self._dead -= 1
                    continue
                if self._stopped or fired >= limit or entry[0] > horizon:
                    break
                heappop(heap)
                if entry[0] < self._now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self._now = entry[0]
                self._fired_count += 1
                self._live -= 1
                if self._dead >= COMPACT_MIN_DEAD:  # the common miss, inline
                    self._maybe_compact()
                # Detach before firing: a late cancel() on an already-fired
                # event must not touch the live/dead counters again.
                event._owner = None
                event.fire()
                fired += 1
        finally:
            if collecting:
                gc.enable()
            self._running = False
            self._report_run(fired, _wall.perf_counter() - started)
        return fired

    def stop(self) -> None:
        """Stop the current :meth:`run`/:meth:`run_until` after the active event."""
        self._stopped = True

    def _report_run(self, fired: int, elapsed: float) -> None:
        """Fold one run's kernel stats into the attached metrics registry.

        Counters are bumped in bulk per run (not per event) to keep the
        step loop free of instrumentation overhead.  The events/sec gauge
        is wall-clock derived and therefore non-deterministic, but gauges
        never feed back into the simulation.
        """
        metrics = self.metrics
        if metrics is None or fired == 0:
            return
        bound = self._bound
        bound.counter(metrics, "events_fired").inc(fired)
        bound.counter(metrics, "runs").inc()
        bound.gauge(metrics, "time_seconds").set(self._now)
        if elapsed > 0:
            bound.gauge(metrics, "events_per_wallsec").set(fired / elapsed)

    def _peek(self) -> Optional[Event]:
        """Return the next live event without popping it, discarding canceled ones."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event._canceled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return event
        return None

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.6g} pending={self.pending}>"
