"""Per-trigger-identity event buffering.

§4 ("Sequential Execution of Applets") explains the clustered action
pattern: *"Upon receiving a polling query, the trigger service should
return many buffered trigger events (up to k) to IFTTT"* — k being the
``limit`` field of the poll, 50 by default.  This module implements that
buffer: trigger events accumulate per trigger identity between polls, and
each poll drains up to ``limit`` of the most recent ones (newest first,
as the IFTTT API specifies).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

_event_ids = itertools.count(1)

DEFAULT_CAPACITY = 500


@dataclass(frozen=True)
class TriggerEvent:
    """One occurrence of a trigger condition.

    Attributes
    ----------
    event_id:
        Globally unique id (the protocol's ``meta.id``); the engine
        deduplicates on it across polls.
    created_at:
        When the trigger condition was met (``meta.timestamp``).
    ingredients:
        Values exposed to the action's field templating
        (e.g. ``{"subject": ..., "from": ...}`` for a new-email event).
    """

    event_id: int
    created_at: float
    ingredients: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def create(created_at: float, **ingredients: Any) -> "TriggerEvent":
        """Mint a new event with a fresh id."""
        return TriggerEvent(event_id=next(_event_ids), created_at=created_at, ingredients=dict(ingredients))

    def to_wire(self) -> Dict[str, Any]:
        """Serialize to the poll-response shape."""
        return {
            "meta": {"id": self.event_id, "timestamp": self.created_at},
            "ingredients": dict(self.ingredients),
        }


class TriggerBuffer:
    """A bounded ring of trigger events for one trigger identity."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TriggerEvent] = deque(maxlen=capacity)
        self.total_appended = 0
        self.dropped = 0

    def append(self, event: TriggerEvent) -> None:
        """Buffer one event; the oldest is dropped when full."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.total_appended += 1

    def fetch(self, limit: int = 50) -> List[TriggerEvent]:
        """Up to ``limit`` most recent events, newest first (poll semantics).

        Fetching does not consume: IFTTT polls are idempotent reads and the
        engine deduplicates by ``meta.id``.
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        return list(itertools.islice(reversed(self._events), limit))

    def __len__(self) -> int:
        return len(self._events)

    def latest(self) -> TriggerEvent:
        """The most recent event; raises ``IndexError`` when empty."""
        return self._events[-1]

    def __repr__(self) -> str:
        return f"<TriggerBuffer {len(self._events)}/{self.capacity}>"
