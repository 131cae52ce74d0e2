"""Scheduled events for the discrete-event simulator."""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  The monotonically
    increasing sequence number guarantees a stable FIFO order for events
    scheduled at the same instant, which keeps simulations deterministic.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    callback:
        Zero-or-more-argument callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    priority:
        Tie-break between events at the same time; lower fires first.
    label:
        Optional human-readable tag used by traces and ``repr``.
    seq:
        The FIFO tie-break, unique per heap; ``Simulator.schedule_at``
        draws it from the simulator's own counter.
    """

    __slots__ = (
        "time", "callback", "args", "priority", "seq", "label", "_canceled", "_owner"
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        label: Optional[str] = None,
        *,
        seq: int,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.callback = callback
        self.args = args
        self.priority = priority
        self.seq = seq
        self.label = label
        self._canceled = False
        #: The owning simulator while the event sits in its heap (set by
        #: ``Simulator.schedule_at``, cleared on fire); lets :meth:`cancel`
        #: keep the O(1) ``Simulator.pending`` counter exact and tell the
        #: kernel how many dead entries its heap carries.
        self._owner = None

    @property
    def canceled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._canceled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Canceling is idempotent.  A canceled event stays in the heap and is
        skipped by the simulator when popped (or dropped earlier, when the
        simulator compacts a mostly-dead heap); the owning simulator is
        told here, exactly once, so ``Simulator.pending`` stays O(1).
        """
        if self._canceled:
            return
        self._canceled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._note_canceled()

    def fire(self) -> None:
        """Invoke the callback unless the event was canceled."""
        if not self._canceled:
            self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        # The public ordering contract, field by field (no tuples built).
        # The simulator's own heap compares ``(time, priority, seq)``-prefixed
        # entry tuples in C instead and never lands here.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        state = " canceled" if self._canceled else ""
        return f"<Event t={self.time:.6g}{tag}{state}>"
