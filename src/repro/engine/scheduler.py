"""Poll-dispatch strategies: how applet polls become simulator events.

The seed engine scheduled **one simulator timer event per applet poll**
(`sim.schedule(delay, engine._poll, runtime)`).  That is simple and
exactly reproduces the paper's per-applet polling cadence, but it keeps
one live :class:`~repro.simcore.event.Event` in the simulator heap per
installed applet — at the ROADMAP's 1M-applet north star every kernel
heap operation (including the ones for unrelated network deliveries)
pays ``O(log 1M)`` comparisons against rich Event objects.

:class:`HeapPollScheduler` replaces that with **one scheduler wake event
per engine**: due polls live in an engine-internal binary heap of plain
``(time, seq, runtime, generation)`` tuples (C-speed comparisons, no
per-poll Event allocation), and a single simulator event pops every poll
due at the wake time in one batch.  Cancellation (uninstall, disable,
reschedule) is **lazy**: the applet's generation counter is bumped and
the stale heap entry is discarded when it surfaces — with periodic
compaction so uninstall storms cannot pin memory (see
``docs/PERFORMANCE.md``).

Determinism contract
--------------------
Both strategies fire the same polls at the same simulation times in the
same order, consume the engine RNG identically, and therefore produce
identical traces, T2A samples, and metric snapshots (modulo the kernel
event counters in
:data:`~repro.obs.metrics.DISPATCH_SENSITIVE_METRICS`, because one wake
event can fire many polls).  ``tests/test_scheduler_equivalence.py``
pins this equivalence property across seeds, corpora, and all shard
strategies; ``benchmarks/bench_fleet_scale.py`` measures the speed gap.

Ordering fine print: within one engine, polls scheduled for the same
instant fire in scheduling order under both strategies (the internal
heap's ``seq`` mirrors the simulator's event sequence).  Across engines
(shards), simultaneous polls batch per shard under the heap scheduler;
shard RNGs are independent forks, so per-shard behaviour — and the
merged-snapshot algebra built on it — is unaffected.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

#: Poll-dispatch strategies understood by
#: :class:`~repro.engine.config.EngineConfig.poll_dispatch`.
POLL_DISPATCH_MODES: tuple = ("heap", "timers")

#: Compaction trigger: rebuild the internal heap once it holds at least
#: this many entries *and* at least half of them are lazily-cancelled.
COMPACT_MIN_ENTRIES = 1024


class TimerPollScheduler:
    """The seed dispatch: one simulator timer event per scheduled poll.

    Kept verbatim as the baseline for the heap/timers equivalence suite
    and the ``bench_fleet_scale`` speedup measurement.
    """

    mode = "timers"

    __slots__ = ("engine",)

    def __init__(self, engine) -> None:
        self.engine = engine

    def schedule(self, runtime, delay: float, initial: bool = False) -> None:
        """Schedule (or reschedule) the applet's next poll ``delay`` out."""
        if runtime.pending_poll_event is not None:
            runtime.pending_poll_event.cancel()
        runtime.pending_poll_event = self.engine.sim.schedule(
            delay,
            self.engine._poll,
            runtime,
            label="initial-poll" if initial else "poll",
        )

    def cancel(self, runtime) -> None:
        """Cancel the applet's pending poll timer, if any."""
        if runtime.pending_poll_event is not None:
            runtime.pending_poll_event.cancel()
            runtime.pending_poll_event = None

    def pending_polls(self) -> int:
        """Live (non-cancelled) scheduled polls."""
        engine = self.engine
        return sum(
            1
            for rt in engine._applets.values()
            if rt.pending_poll_event is not None
            and not rt.pending_poll_event.canceled
        )

    def stats(self) -> Dict[str, Any]:
        """Introspection snapshot (shape shared with the heap scheduler)."""
        live = self.pending_polls()
        return {
            "mode": self.mode,
            "heap_entries": live,
            "live_entries": live,
            "stale_entries": 0,
            "compactions": 0,
            "wakes": 0,
            "batched_polls": 0,
        }


class HeapPollScheduler:
    """One simulator wake event services every applet poll of an engine.

    Entries are ``(time, seq, runtime, generation)`` tuples on a binary
    heap.  ``seq`` is a per-engine monotone counter, so same-instant
    polls pop in scheduling order — the exact tie-break the simulator's
    global event sequence gave the per-applet timers.  Because ``seq`` is
    unique, tuple comparison never reaches the runtime element, so the
    heap works at C tuple-comparison speed with no ``__lt__`` on runtime
    state.  ``generation`` is compared against the runtime's current
    ``poll_gen`` on pop: a mismatch (reschedule, disable, uninstall
    bumped it) means the entry is stale and is skipped — lazy
    cancellation, O(1) at cancel time.

    One wake event is kept in the simulator for the earliest entry; it
    is pulled earlier whenever a nearer poll is pushed, and re-armed
    after each batch.  A wake that surfaces only stale entries is a
    cheap no-op; compaction (:meth:`_maybe_compact`) bounds how many
    stale entries an uninstall storm can leave behind.
    """

    mode = "heap"

    __slots__ = (
        "engine",
        "_heap",
        "_seq",
        "_wake",
        "_firing",
        "stale_entries",
        "compactions",
        "wakes",
        "batched_polls",
    )

    def __init__(self, engine) -> None:
        self.engine = engine
        self._heap: List[Tuple[float, int, Any, int]] = []
        self._seq = itertools.count()
        self._wake: Optional[Any] = None  # the armed simulator Event
        self._firing = False  # suppress re-arming inside a wake batch
        self.stale_entries = 0
        self.compactions = 0
        self.wakes = 0
        self.batched_polls = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, runtime, delay: float, initial: bool = False) -> None:
        """Push the applet's next poll; supersedes any earlier entry."""
        if delay < 0:
            raise ValueError(f"cannot schedule a poll into the past (delay={delay})")
        if runtime.poll_scheduled:
            # The superseded entry stays in the heap; the generation bump
            # below marks it stale.
            self.stale_entries += 1
        runtime.poll_gen += 1
        runtime.poll_scheduled = True
        due = self.engine.sim.now + delay
        heappush(self._heap, (due, next(self._seq), runtime, runtime.poll_gen))
        self._arm_wake(due)

    def cancel(self, runtime) -> None:
        """Lazily cancel the applet's scheduled poll (O(1))."""
        if runtime.poll_scheduled:
            runtime.poll_scheduled = False
            runtime.poll_gen += 1
            self.stale_entries += 1
            self._maybe_compact()

    # -- the wake event -----------------------------------------------------

    def _arm_wake(self, due: float) -> None:
        if self._firing:
            # Mid-batch reschedules land in the heap only; _fire re-arms
            # once at the true earliest entry when the batch ends.
            return
        wake = self._wake
        if wake is not None:
            if wake.time <= due:
                return
            # A nearer poll arrived: pull the wake earlier.  The fresh
            # event takes a new simulator sequence number — the same one
            # the per-applet timer for this poll would have taken.
            wake.cancel()
        self._wake = self.engine.sim.schedule_at(
            due, self._fire, label="poll-wake"
        )

    def _fire(self) -> None:
        """Pop and dispatch every poll due now, then re-arm."""
        self._wake = None
        self.wakes += 1
        engine = self.engine
        now = engine.sim.now
        heap = self._heap
        poll = engine._poll
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
                poll(runtime)
        finally:
            self._firing = False
        self.batched_polls += batch
        if heap:
            self._arm_wake(heap[0][0])
        self._maybe_compact()

    # -- lazy-cancellation hygiene ------------------------------------------

    def _maybe_compact(self) -> None:
        """Drop stale entries once they dominate a large heap.

        Triggered opportunistically from :meth:`cancel` and after each
        wake batch, so an uninstall storm (50% of the fleet removed at
        once) cannot leave the heap pinned at its pre-storm size.  The
        rebuild preserves entry tuples (and therefore heap order), so
        compaction is invisible to the dispatch sequence.
        """
        heap = self._heap
        if len(heap) < COMPACT_MIN_ENTRIES or self.stale_entries * 2 < len(heap):
            return
        kept = [entry for entry in heap if entry[2].poll_gen == entry[3]]
        heapify(kept)
        self._heap = kept
        self.stale_entries = 0
        self.compactions += 1

    # -- introspection ------------------------------------------------------

    def pending_polls(self) -> int:
        """Live (non-stale) scheduled polls."""
        return len(self._heap) - self.stale_entries

    def stats(self) -> Dict[str, Any]:
        """Heap occupancy and lifecycle counters (for tests and reports)."""
        return {
            "mode": self.mode,
            "heap_entries": len(self._heap),
            "live_entries": self.pending_polls(),
            "stale_entries": self.stale_entries,
            "compactions": self.compactions,
            "wakes": self.wakes,
            "batched_polls": self.batched_polls,
        }


def make_poll_scheduler(engine, mode: str):
    """Build the poll scheduler named by ``mode`` (see
    :data:`POLL_DISPATCH_MODES`)."""
    if mode == "heap":
        return HeapPollScheduler(engine)
    if mode == "timers":
        return TimerPollScheduler(engine)
    raise ValueError(
        f"unknown poll_dispatch {mode!r}; expected one of {POLL_DISPATCH_MODES}"
    )
