"""The poll scheduler: how applet polls become simulator heap entries.

Each scheduled poll is **one plain entry in its engine's simulator
heap**: :meth:`Simulator.call_at` pushes ``(time, seq, fire, runtime)``,
with no ``Event`` object, no second heap and no wake event.  The
applet's ``poll_gen`` holds the live entry's ``seq``; cancellation
(uninstall, disable, reschedule) hands that ``seq`` to
:meth:`Simulator.cancel_call`, which counts the entry dead exactly as
``Event.cancel`` does: it is skipped without firing when it surfaces,
``Simulator.pending`` stays exact, and the kernel's stale-majority
compaction drops it, so uninstall storms cannot pin memory (see
``docs/PERFORMANCE.md``).

Determinism contract
--------------------
The scheduler fires the same polls at the same simulation times in the
same order, and consumes the engine RNG identically, as one simulator
timer event per poll would — the dispatch the paper's per-applet
polling cadence describes.  It *is* that dispatch, minus the ``Event``
object: every poll draws its ``seq`` from the simulator's own counter
when it is scheduled, so same-instant polls and events fire in
scheduling order.  ``tests/test_scheduler_equivalence.py`` keeps a
one-``Event``-per-poll dispatch as its reference and pins identical
traces, T2A samples and metric snapshots, kernel event counters
included, across seeds, corpora and all shard strategies.
"""

from __future__ import annotations

from typing import Any, Dict


class HeapPollScheduler:
    """Every applet poll of an engine is one entry in the kernel heap.

    The fire callable is bound once per scheduler and shared by every
    entry (a bound method per entry would cost each applet ~64 B).  A
    fire reaches the engine as ``self.engine._poll(runtime)``, looked up
    at each poll, so whatever stands in ``engine`` sees every call.
    """

    __slots__ = ("engine", "_sim", "_fire_poll", "polls_fired")

    def __init__(self, engine) -> None:
        self.engine = engine
        # The engine's simulator, resolved by the first schedule(): the
        # scheduler is built before its engine joins a network.
        self._sim = None
        self._fire_poll = self._fire
        self.polls_fired = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, runtime, delay: float, initial: bool = False) -> None:
        """Push the applet's next poll; supersedes any earlier entry."""
        if not delay >= 0:  # also NaN, before anything is pushed or cancelled
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        sim = self._sim
        if sim is None:
            sim = self._sim = self.engine.sim
        if runtime.poll_scheduled:
            sim.cancel_call(runtime.poll_gen)
        else:
            runtime.poll_scheduled = True
        runtime.poll_gen = sim.call_at(sim._now + delay, self._fire_poll, runtime)

    def cancel(self, runtime) -> None:
        """Cancel the applet's scheduled poll (O(1); the kernel drops it)."""
        if runtime.poll_scheduled:
            runtime.poll_scheduled = False
            self._sim.cancel_call(runtime.poll_gen)

    def _fire(self, runtime) -> None:
        """The kernel's call for one due poll."""
        runtime.poll_scheduled = False
        self.polls_fired += 1
        self.engine._poll(runtime)

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """This scheduler's entries in the kernel heap, and its counters.

        ``heap_entries`` = ``live_entries`` (scheduled polls) +
        ``stale_entries`` (cancelled or superseded polls the kernel still
        holds), read by one scan of the heap.  ``compactions`` counts the
        kernel heap's rebuilds.  ``wakes`` and ``batched_polls`` both
        count fired polls: each poll is its own entry, so every fire
        dispatches exactly one.
        """
        live = stale = 0
        sim = self._sim
        compactions = 0
        if sim is not None:
            fire = self._fire_poll
            dead_calls = sim._dead_calls
            for entry in sim._heap:
                if len(entry) == 4 and entry[2] is fire:
                    if entry[1] in dead_calls:
                        stale += 1
                    else:
                        live += 1
            compactions = sim.compactions
        return {
            "heap_entries": live + stale,
            "live_entries": live,
            "stale_entries": stale,
            "compactions": compactions,
            "wakes": self.polls_fired,
            "batched_polls": self.polls_fired,
        }
