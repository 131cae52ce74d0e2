"""The poll scheduler: how applet polls become simulator events.

Each engine keeps **one scheduler wake event** in the simulator: due
polls live in an engine-internal binary heap of plain ``(time, seq,
runtime, generation)`` tuples (C-speed comparisons, no per-poll Event
allocation), and the single wake event pops every poll due at its time
in one batch.  Cancellation (uninstall, disable, reschedule) is
**lazy**: the applet's generation counter is bumped and the stale heap
entry is discarded when it surfaces — with periodic compaction so
uninstall storms cannot pin memory (see ``docs/PERFORMANCE.md``).

Determinism contract
--------------------
The scheduler fires the same polls at the same simulation times in the
same order, and consumes the engine RNG identically, as one simulator
timer event per poll would — the dispatch the paper's per-applet
polling cadence describes.  ``tests/test_scheduler_equivalence.py``
keeps that one-event-per-poll dispatch as its reference and pins
identical traces, T2A samples and metric snapshots (modulo the kernel
event counters, because one wake event can fire many polls) across
seeds, corpora and all shard strategies.

Ordering fine print: within one engine, polls scheduled for the same
instant fire in scheduling order (the internal heap's ``seq`` mirrors
the simulator's event sequence).  Across engines (shards), simultaneous
polls batch per shard; shard RNGs are independent forks, so per-shard
behaviour — and the merged-snapshot algebra built on it — is
unaffected.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

#: Compaction trigger: rebuild the internal heap once it holds at least
#: this many entries *and* at least half of them are lazily-cancelled.
COMPACT_MIN_ENTRIES = 1024


class HeapPollScheduler:
    """One simulator wake event services every applet poll of an engine.

    Entries are ``(time, seq, runtime, generation)`` tuples on a binary
    heap.  ``seq`` is a per-engine monotone counter, so same-instant
    polls pop in scheduling order — the tie-break the simulator's global
    event sequence gives one timer event per poll.  Because ``seq`` is
    unique, tuple comparison never reaches the runtime element, so the
    heap works at C tuple-comparison speed with no ``__lt__`` on runtime
    state.  ``generation`` is compared against the runtime's current
    ``poll_gen`` on pop: a mismatch (reschedule, disable, uninstall
    bumped it) means the entry is stale and is skipped — lazy
    cancellation, O(1) at cancel time.

    One wake event is kept in the simulator for the earliest entry; it
    is pulled earlier whenever a nearer poll is pushed, and re-armed
    after each batch.  A wake that surfaces only stale entries is a
    cheap no-op; compaction (:meth:`_compact`) bounds how many
    stale entries an uninstall storm can leave behind.
    """

    __slots__ = (
        "engine",
        "_sim",
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
        # The engine's simulator, resolved by the first schedule(): the
        # scheduler is built before its engine joins a network.
        self._sim = None
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
        if not delay >= 0:  # also NaN, before anything is pushed or cancelled
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        if runtime.poll_scheduled:
            # The superseded entry stays in the heap; the generation bump
            # below marks it stale.
            self.stale_entries += 1
        runtime.poll_gen += 1
        runtime.poll_scheduled = True
        sim = self._sim
        if sim is None:
            sim = self._sim = self.engine.sim
        due = sim._now + delay
        heappush(self._heap, (due, next(self._seq), runtime, runtime.poll_gen))
        # Most polls land behind the armed wake, which then stays put.
        # Mid-batch reschedules land in the heap only: _fire re-arms once
        # at the true earliest entry when the batch ends.
        wake = self._wake
        if (wake is None or due < wake.time) and not self._firing:
            self._arm_wake(due)

    def cancel(self, runtime) -> None:
        """Lazily cancel the applet's scheduled poll (O(1))."""
        if runtime.poll_scheduled:
            runtime.poll_scheduled = False
            runtime.poll_gen += 1
            self.stale_entries += 1
            heap = self._heap
            # Never mid-batch: _fire is still popping the list a rebuild
            # would replace, and tests the rule itself when it ends.
            if (
                len(heap) >= COMPACT_MIN_ENTRIES
                and self.stale_entries * 2 >= len(heap)
                and not self._firing
            ):
                self._compact()

    # -- the wake event -----------------------------------------------------

    def _arm_wake(self, due: float) -> None:
        """Arm the wake at ``due``, earlier than the armed one, if any.

        The nearer poll pulls the wake earlier; the fresh event takes a
        new simulator sequence number — the same one a timer event for
        this poll alone would have taken.
        """
        wake = self._wake
        if wake is not None:
            wake.cancel()
        self._wake = self._sim.schedule_at(due, self._fire, label="poll-wake")

    def _fire(self) -> None:
        """Pop and dispatch every poll due now, then re-arm."""
        self._wake = None
        self.wakes += 1
        now = self._sim._now
        heap = self._heap
        poll = self.engine._poll
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
        heap = self._heap
        if heap:
            # No wake is armed (it was cleared above, and the batch armed
            # none), so this is _arm_wake without its frame.
            self._wake = self._sim.schedule_at(heap[0][0], self._fire, label="poll-wake")
        if len(heap) >= COMPACT_MIN_ENTRIES and self.stale_entries * 2 >= len(heap):
            self._compact()

    # -- lazy-cancellation hygiene ------------------------------------------

    def _compact(self) -> None:
        """Drop stale entries: called once they dominate a large heap.

        The rule — at least :data:`COMPACT_MIN_ENTRIES` entries, at least
        half of them stale — is tested inline by :meth:`cancel` and after
        each wake batch, so an uninstall storm (50% of the fleet removed
        at once) cannot leave the heap pinned at its pre-storm size.  The
        rebuild preserves entry tuples (and therefore heap order), so
        compaction is invisible to the dispatch sequence.
        """
        heap = self._heap
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
            "heap_entries": len(self._heap),
            "live_entries": self.pending_polls(),
            "stale_entries": self.stale_entries,
            "compactions": self.compactions,
            "wakes": self.wakes,
            "batched_polls": self.batched_polls,
        }
