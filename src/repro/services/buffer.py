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

import copyreg
import itertools
from types import MappingProxyType
from typing import Any, List, Mapping, NamedTuple, Tuple, Union

DEFAULT_CAPACITY = 500

#: What a buffer holds before its first event: the one shared empty
#: sequence, which reads exactly as an empty ring does.
_NO_EVENTS: Tuple[()] = ()

#: The ingredients of an event that exposes none, shared by all of them.
_NO_INGREDIENTS: Mapping[str, Any] = MappingProxyType({})


def _read_only(items: dict) -> Mapping[str, Any]:
    """Rebuild a pickled read-only mapping."""
    return MappingProxyType(items)


def _reduce_read_only(proxy: Mapping[str, Any]):
    """Pickle a ``MappingProxyType`` as a copy of what it shows.

    Ingredients are read-only views, which :mod:`pickle` cannot save on
    its own; registered with :mod:`copyreg` so a world holding buffered
    events pickles mid-run.  A mapping many events share is saved once,
    so it stays shared after a round trip.
    """
    return _read_only, (dict(proxy),)


copyreg.pickle(MappingProxyType, _reduce_read_only)


class TriggerEvent(NamedTuple):
    """One occurrence of a trigger condition — and its wire form.

    A tuple with named fields rather than a dataclass: one is buffered per
    matching identity per publication, and a popular trigger fans out to
    thousands (docs/PERFORMANCE.md, "Where a publication's bytes go").
    Poll responses and push notifications carry the buffered record
    itself, not a copy (docs/PROTOCOL.md, "The trigger event record"):
    it is immutable and its ingredients are read-only, so a consumer
    cannot rewrite what the service holds.

    Attributes
    ----------
    event_id:
        Unique within a world (the protocol's ``meta.id``); the engine
        deduplicates on it across polls.  A service mints it from its
        simulator's :attr:`~repro.simcore.simulator.Simulator.event_ids`.
    created_at:
        When the trigger condition was met (``meta.timestamp``).
    ingredients:
        Values exposed to the action's field templating
        (e.g. ``{"subject": ..., "from": ...}`` for a new-email event).
        Read-only: the events one publication buffers share one mapping.
    """

    event_id: int
    created_at: float
    ingredients: Mapping[str, Any] = _NO_INGREDIENTS


class TriggerBuffer:
    """A bounded ring of trigger events for one trigger identity.

    One exists per polled identity, and at any instant most identities
    have never seen an event (§3's heavy tail), so the ring is allocated
    by the first :meth:`append`, not here.  It is a ``list`` rather than
    a ``deque(maxlen=capacity)``, whose 760 bytes a fanned-out identity
    holding a few events would pay in full; evicting the oldest shifts
    the list, which happens only once ``capacity`` events are held.
    """

    __slots__ = ("capacity", "_events", "total_appended", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Union[List[TriggerEvent], Tuple[()]] = _NO_EVENTS
        self.total_appended = 0
        self.dropped = 0

    def append(self, event: TriggerEvent) -> None:
        """Buffer one event; the oldest is dropped when full."""
        events = self._events
        if events is _NO_EVENTS:
            events = self._events = []
        events.append(event)
        if len(events) > self.capacity:
            del events[0]
            self.dropped += 1
        self.total_appended += 1

    def fetch(self, limit: int = 50) -> List[TriggerEvent]:
        """Up to ``limit`` most recent events, newest first (poll semantics).

        Fetching does not consume: IFTTT polls are idempotent reads and the
        engine deduplicates by ``event_id``.
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        return list(itertools.islice(reversed(self._events), limit))

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"<TriggerBuffer {len(self._events)}/{self.capacity}>"
