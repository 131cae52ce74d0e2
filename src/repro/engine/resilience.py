"""Engine resilience primitives: retries, circuit breakers, dead letters.

The paper measures IFTTT only on the happy path, but its §4 observations
(long variable polling, partner outages surfacing as silent latency
spikes) imply machinery on the real engine that this module makes
explicit:

* :func:`backoff` / :func:`exhausted` — capped exponential backoff with
  deterministic jitter, drawn from the simulation RNG so retry storms
  are replayable;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, kept per service by the engine.  An open breaker sheds polls
  and action sends, modelling the adaptive slow-down of polling for
  failing services;
* :class:`PendingAction` / :class:`DeadLetter` — the engine's action
  retry queue bookkeeping: every dispatched action is either delivered
  or ends in the dead-letter sink; none is silently lost;
* :class:`ReplayPolicy` — switches on the dead-letter replay pass that
  re-dispatches a healed service's dead letters in batched catch-up
  requests (:mod:`repro.engine.replay`), extending the conservation
  invariant to ``dispatched == delivered + in_retry + dead_lettered +
  in_replay``.

Retries and breakers are always on, and their tunables are this
module's constants, not settings; :class:`ReplayPolicy` keeps only
``batching``.  See ``docs/ROBUSTNESS.md`` for the full semantics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simcore.rng import Rng


#: Tries per poll burst or action delivery, counting the first: one
#: initial attempt plus up to three retries.
RETRY_MAX_ATTEMPTS = 4
#: Backoff before retry ``n`` (1-based): ``RETRY_BASE_DELAY *
#: RETRY_MULTIPLIER**(n-1)`` seconds capped at ``RETRY_MAX_DELAY``, then
#: jittered by ±``RETRY_JITTER`` (a fraction).
RETRY_BASE_DELAY = 1.0
RETRY_MULTIPLIER = 2.0
RETRY_MAX_DELAY = 30.0
RETRY_JITTER = 0.1
#: Consecutive failures that trip a closed breaker open.
BREAKER_FAILURE_THRESHOLD = 5
#: Seconds an open breaker sheds before it lets one half-open probe through.
BREAKER_RECOVERY_TIMEOUT = 30.0
#: Actions coalesced into one replay request — the same k = 50 the paper
#: reverse-engineered from the partner polling protocol's ``limit``.
REPLAY_BATCH_LIMIT = 50


def backoff(attempt: int, rng: Optional[Rng] = None) -> float:
    """Delay before retry number ``attempt`` (1-based); unjittered
    without an ``rng`` (the simulation stream, so runs are reproducible)."""
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    delay = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * RETRY_MULTIPLIER ** (attempt - 1))
    if rng is not None:
        delay *= 1.0 + rng.uniform(-RETRY_JITTER, RETRY_JITTER)
    return delay


def exhausted(attempts: int) -> bool:
    """Whether ``attempts`` tries have used up the retry budget."""
    return attempts >= RETRY_MAX_ATTEMPTS


#: Each breaker state's numeric level for gauges, by state value.
_BREAKER_LEVELS = {"closed": 0, "half_open": 1, "open": 2}


class BreakerState(enum.Enum):
    """Circuit-breaker states, ordered by severity.

    ``level`` is the state's numeric level for gauges (closed=0,
    half_open=1, open=2): a plain attribute looked up once per member,
    read on every outcome the degradation ladder sees.
    """

    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"

    def __init__(self, value: str) -> None:
        self.level = _BREAKER_LEVELS[value]


TransitionHook = Callable[[BreakerState, BreakerState, float], None]


class CircuitBreaker:
    """Closed → open → half-open breaker for one downstream service.

    * **closed** — requests flow; :data:`BREAKER_FAILURE_THRESHOLD`
      consecutive failures trip the breaker open.
    * **open** — requests are shed without touching the network; after
      :data:`BREAKER_RECOVERY_TIMEOUT` seconds the next :meth:`allow`
      moves to half-open.
    * **half-open** — one probe request is let through; its success
      closes the breaker, its failure re-opens it.

    The breaker is time-driven but clockless: callers pass ``now`` (the
    simulation clock), keeping the class trivially testable.

    Timing invariants (regression-tested through the full
    OPEN → HALF_OPEN → OPEN → HALF_OPEN cycle):

    * every transition *into* OPEN — first trip or re-open from
      HALF_OPEN — goes through :meth:`_trip`, which refreshes
      ``_opened_at``, so each recovery window is measured from the most
      recent (re-)open, never the original trip;
    * ``_opened_at`` is cleared on close, so a breaker that somehow
      reads it outside OPEN sees ``None`` instead of a stale timestamp.
    """

    def __init__(self, on_transition: Optional[TransitionHook] = None) -> None:
        self.on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probed = False
        #: Chronological (time, from, to) transition log for tests/reports.
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []

    @property
    def state(self) -> BreakerState:
        """Current state (as of the last :meth:`allow`/record call)."""
        return self._state

    def _transition(self, new_state: BreakerState, now: float) -> None:
        old = self._state
        if old is new_state:
            return
        self._state = new_state
        self.transitions.append((now, old, new_state))
        if self.on_transition is not None:
            self.on_transition(old, new_state, now)

    def allow(self, now: float) -> bool:
        """Whether a request may go out at time ``now``."""
        if self._state is BreakerState.OPEN:
            if self._opened_at is not None and (
                now - self._opened_at >= BREAKER_RECOVERY_TIMEOUT
            ):
                self._transition(BreakerState.HALF_OPEN, now)
                self._probed = False
            else:
                return False
        if self._state is BreakerState.HALF_OPEN:
            if self._probed:
                return False
            self._probed = True
        return True

    def probe_at(self) -> Optional[float]:
        """While OPEN, the first instant at which :meth:`allow` lets a
        half-open probe through (``None`` in any other state)."""
        if self._state is not BreakerState.OPEN or self._opened_at is None:
            return None
        opened_at, wait = self._opened_at, BREAKER_RECOVERY_TIMEOUT
        at = opened_at + wait
        while at - opened_at < wait:  # the sum rounded down: allow() would shed
            at = math.nextafter(at, math.inf)
        return at

    def _trip(self, now: float) -> None:
        """The single entry into OPEN: always restart the recovery clock."""
        self._opened_at = now
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN, now)

    def record_success(self, now: float) -> None:
        """A request completed successfully."""
        self._consecutive_failures = 0
        if self._state is not BreakerState.CLOSED:
            self._opened_at = None
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """A request failed (error status, timeout, or refusal)."""
        if self._state is BreakerState.HALF_OPEN:
            # Re-open: the next recovery window starts *now*, not at the
            # original trip — otherwise the second HALF_OPEN would arrive
            # early (or instantly) after a failed probe.
            self._trip(now)
        elif self._state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
                self._trip(now)
        # While OPEN: stale failures from in-flight requests are ignored.

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self._state.value} transitions={len(self.transitions)}>"


@dataclass
class PendingAction:
    """One action delivery the engine has committed to completing."""

    applet_id: int
    service_slug: str
    action_slug: str
    fields: Dict[str, Any]
    user: str
    event_id: Any
    created_at: float
    attempts: int = 0
    last_status: Optional[int] = None


@dataclass(frozen=True)
class DeadLetter:
    """A permanently failed action delivery — accounted, never silent."""

    applet_id: int
    service_slug: str
    action_slug: str
    fields: Dict[str, Any]
    event_id: Any
    created_at: float
    dead_at: float
    attempts: int
    last_status: Optional[int]
    reason: str
    #: The acting user, kept so a replay pass can re-authenticate the
    #: re-dispatched action.
    user: str

    @staticmethod
    def from_pending(pending: PendingAction, dead_at: float, reason: str) -> "DeadLetter":
        """Seal a pending action into its dead-letter record."""
        return DeadLetter(
            applet_id=pending.applet_id,
            service_slug=pending.service_slug,
            action_slug=pending.action_slug,
            fields=dict(pending.fields),
            event_id=pending.event_id,
            created_at=pending.created_at,
            dead_at=dead_at,
            attempts=pending.attempts,
            last_status=pending.last_status,
            reason=reason,
            user=pending.user,
        )

    def to_pending(self) -> PendingAction:
        """Re-open a dead letter as a fresh delivery commitment.

        The attempt budget restarts (the letter already exhausted its
        original one against the *unhealthy* service) while
        ``created_at`` is preserved, so replayed-event latency is still
        measured from the original trigger time.
        """
        return PendingAction(
            applet_id=self.applet_id,
            service_slug=self.service_slug,
            action_slug=self.action_slug,
            fields=dict(self.fields),
            user=self.user,
            event_id=self.event_id,
            created_at=self.created_at,
        )


def conservation_residual(stats: Dict[str, int]) -> int:
    """``dispatched − delivered − in_retry − dead_lettered − in_replay``
    of one :meth:`IftttEngine.stats` snapshot (or a sum of them) — the
    actions silently lost, which the conservation invariant says is 0."""
    return (
        stats["actions_dispatched"]
        - stats["actions_delivered"]
        - stats["actions_in_retry"]
        - stats["dead_letters"]
        - stats["actions_in_replay"]
    )


@dataclass(frozen=True)
class ReplayPolicy:
    """Switches dead-letter replay on (:mod:`repro.engine.replay`).

    A service's dead letters drain at the next simulator event after its
    circuit breaker closes, and on explicit ``replay_dead_letters()``
    calls (into a breaker that is not closed, at the close their own
    half-open probe brings).

    Attributes
    ----------
    batching:
        When True, up to :data:`REPLAY_BATCH_LIMIT` same-service actions
        travel in one :class:`~repro.services.partner.BatchActionRequest`;
        when False every replayed action is re-dispatched as its own
        single-action request — the unbatched baseline the catch-up
        burst measurement compares against.
    """

    batching: bool = True
