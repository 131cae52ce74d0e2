"""Engine resilience primitives: retries, circuit breakers, dead letters.

The paper measures IFTTT only on the happy path, but its §4 observations
(long variable polling, partner outages surfacing as silent latency
spikes) imply machinery on the real engine that this module makes
explicit:

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter, drawn from the simulation RNG so retry storms are replayable;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, kept per service by the engine.  An open breaker sheds polls
  and action sends, modelling the adaptive slow-down of polling for
  failing services;
* :class:`PendingAction` / :class:`DeadLetter` — the engine's action
  retry queue bookkeeping: every dispatched action is either delivered
  or ends in the dead-letter sink; none is silently lost;
* :class:`ReplayPolicy` — tunables for the dead-letter replay pass that
  re-dispatches a healed service's dead letters in batched catch-up
  requests (:mod:`repro.engine.replay`), extending the conservation
  invariant to ``dispatched == delivered + in_retry + dead_lettered +
  in_replay``.

See ``docs/ROBUSTNESS.md`` for the full semantics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simcore.rng import Rng


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts *every* try, including the first: the
    default of 4 means one initial attempt plus up to three retries.
    Backoff for retry ``n`` (1-based) is ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, then jittered by ±``jitter`` (a fraction)
    using the caller-supplied RNG — the simulation stream, so runs are
    reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 < base_delay <= max_delay, got {self.base_delay}, {self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int, rng: Optional[Rng] = None) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return delay

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` tries have used up the budget."""
        return attempts >= self.max_attempts


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


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables for per-service circuit breakers."""

    failure_threshold: int = 5
    recovery_timeout: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {self.failure_threshold}")
        if self.recovery_timeout <= 0:
            raise ValueError(f"recovery_timeout must be positive, got {self.recovery_timeout}")
        if self.half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, got {self.half_open_probes}")


TransitionHook = Callable[[BreakerState, BreakerState, float], None]


class CircuitBreaker:
    """Closed → open → half-open breaker for one downstream service.

    * **closed** — requests flow; ``failure_threshold`` consecutive
      failures trip the breaker open.
    * **open** — requests are shed without touching the network; after
      ``recovery_timeout`` seconds the next :meth:`allow` moves to
      half-open.
    * **half-open** — up to ``half_open_probes`` probe requests are let
      through; one success closes the breaker, one failure re-opens it.

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

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        on_transition: Optional[TransitionHook] = None,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_allowed = 0
        self.shed_count = 0
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
                now - self._opened_at >= self.policy.recovery_timeout
            ):
                self._transition(BreakerState.HALF_OPEN, now)
                self._probes_allowed = 0
            else:
                self.shed_count += 1
                return False
        if self._state is BreakerState.HALF_OPEN:
            if self._probes_allowed < self.policy.half_open_probes:
                self._probes_allowed += 1
                return True
            self.shed_count += 1
            return False
        return True

    def probe_at(self) -> Optional[float]:
        """While OPEN, the first instant at which :meth:`allow` lets a
        half-open probe through (``None`` in any other state)."""
        if self._state is not BreakerState.OPEN or self._opened_at is None:
            return None
        opened_at, wait = self._opened_at, self.policy.recovery_timeout
        at = opened_at + wait
        while at - opened_at < wait:  # the sum rounded down: allow() would shed
            at = math.nextafter(at, math.inf)
        return at

    def _trip(self, now: float) -> None:
        """The single entry into OPEN: always restart the recovery clock."""
        self._opened_at = now
        self._consecutive_failures = 0
        self._probes_allowed = 0
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
            if self._consecutive_failures >= self.policy.failure_threshold:
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
    #: re-dispatched action (older pickled letters default to "").
    user: str = ""

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
    """Tunables for dead-letter replay (:mod:`repro.engine.replay`).

    Attributes
    ----------
    batch_limit:
        Maximum actions coalesced into one
        :class:`~repro.services.partner.BatchActionRequest` — the same
        k = 50 default the paper reverse-engineered from the partner
        polling protocol's ``limit``.
    batching:
        When False every replayed action is re-dispatched as its own
        single-action request — the unbatched baseline the catch-up
        burst measurement compares against.
    replay_on_heal:
        Drain a service's dead letters automatically when its circuit
        breaker closes.  Explicit ``replay_dead_letters()`` calls work
        either way (into a breaker that is not closed, at the close
        their own half-open probe brings).
    drain_delay:
        Seconds between the heal and the drain (0 = the next simulator
        event after the closing transition).
    """

    batch_limit: int = 50
    batching: bool = True
    replay_on_heal: bool = True
    drain_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {self.batch_limit}")
        if self.drain_delay < 0:
            raise ValueError(f"drain_delay must be >= 0, got {self.drain_delay}")
