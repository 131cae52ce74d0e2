"""Polling-interval policies.

§4's central finding is that T2A latency "is caused by IFTTT's long
polling interval": large (quartiles 58/84/122 s for applets A1-A4), highly
variable, with an extreme tail (15 minutes), and occasionally inflated by
platform load (Figure 6's 14-minute gap between action clusters).

:class:`ProductionPollingPolicy` reproduces that behaviour: lognormal
intervals around a ~90 s median plus a small probability of a multi-x
"engine busy" inflation.  :class:`FixedPollingPolicy` is experiment E3's
replacement engine (poll every second).  :class:`AdaptivePollingPolicy`
implements the §6 recommendation of predicting trigger activity to poll
smartly.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from repro.simcore.rng import Rng


class PollingPolicy(ABC):
    """Decides how long the engine waits before the next poll of a trigger.

    A policy knows nothing about service health, push rungs or metrics:
    each applet holds a clone (private wherever a policy learns; the
    policy itself where it cannot change), and the engine's one cadence
    decision (``IftttEngine._interval``) combines its draw with the
    trigger service's shared state and records the result.
    """

    @abstractmethod
    def next_interval(self, rng: Rng) -> float:
        """Seconds until the next poll."""

    def observe_events(self, count: int) -> None:
        """Feedback hook: how many new events the last poll returned."""

    def clone(self) -> "PollingPolicy":
        """A fresh copy — each applet (and each engine shard) gets its own.

        The base implementation shallow-copies the instance.  Returning
        ``self`` here would silently share mutable policy state (EWMA
        activity, counters) across every applet of every engine that
        cloned from the same prototype — exactly the cross-shard leak
        ``tests/test_sharding.py`` guards against.  Stateful subclasses
        should override to reset learned state; only a class that never
        assigns an attribute after ``__init__`` may return ``self`` (the
        two below do: a million applets then hold one policy object).
        """
        return copy.copy(self)


class ProductionPollingPolicy(PollingPolicy):
    """The measured IFTTT behaviour: long, variable, occasionally inflated.

    Parameters were calibrated so that simulated T2A latency for
    poll-bound applets matches the paper's quartiles (58/84/122 s) and
    tail (~15 min); see ``tests/test_calibration.py``.
    """

    def __init__(
        self,
        median: float = 145.0,
        sigma: float = 0.30,
        inflation_prob: float = 0.015,
        inflation_min: float = 3.0,
        inflation_max: float = 6.0,
        minimum: float = 50.0,
    ) -> None:
        if median <= 0 or minimum < 0:
            raise ValueError("median must be positive and minimum non-negative")
        if not 0 <= inflation_prob <= 1:
            raise ValueError(f"inflation_prob must be in [0, 1], got {inflation_prob}")
        self.median = median
        self.sigma = sigma
        self.inflation_prob = inflation_prob
        self.inflation_min = inflation_min
        self.inflation_max = inflation_max
        self.minimum = minimum

    def next_interval(self, rng: Rng) -> float:
        interval = rng.lognormal_median(self.median, self.sigma)
        if rng.bernoulli(self.inflation_prob):
            interval *= rng.uniform(self.inflation_min, self.inflation_max)
        return max(self.minimum, interval)

    def clone(self) -> "ProductionPollingPolicy":
        """``self``: parameters only, nothing learned, so nothing to keep
        apart — a fleet's applets share the one object."""
        return self

    def __repr__(self) -> str:
        return f"ProductionPollingPolicy(median={self.median}, sigma={self.sigma})"


class FixedPollingPolicy(PollingPolicy):
    """Poll at a fixed interval — E3's 1 s frequent-polling engine."""

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval

    def next_interval(self, rng: Rng) -> float:
        return self.interval

    def clone(self) -> "FixedPollingPolicy":
        """``self``, for :class:`ProductionPollingPolicy`'s reason."""
        return self

    def __repr__(self) -> str:
        return f"FixedPollingPolicy({self.interval})"


class AdaptivePollingPolicy(PollingPolicy):
    """§6's "poll smartly" proposal: back off when idle, speed up when busy.

    Maintains an exponentially-weighted activity estimate from the
    observed per-poll event counts; the interval interpolates between
    ``fast`` (active trigger) and ``slow`` (idle trigger).  The ablation
    bench shows this recovers most of E3's latency win at a fraction of
    its poll volume.
    """

    def __init__(
        self,
        fast: float = 5.0,
        slow: float = 300.0,
        ewma_alpha: float = 0.3,
        jitter: float = 0.1,
    ) -> None:
        if not 0 < fast <= slow:
            raise ValueError(f"need 0 < fast <= slow, got {fast}, {slow}")
        if not 0 < ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.fast = fast
        self.slow = slow
        self.ewma_alpha = ewma_alpha
        self.jitter = jitter
        self._activity = 0.0

    @property
    def activity(self) -> float:
        """Current EWMA of events-per-poll (clamped to [0, 1] for mixing)."""
        return self._activity

    def observe_events(self, count: int) -> None:
        signal = 1.0 if count > 0 else 0.0
        self._activity = self.ewma_alpha * signal + (1 - self.ewma_alpha) * self._activity

    def next_interval(self, rng: Rng) -> float:
        weight = min(1.0, self._activity)
        base = weight * self.fast + (1 - weight) * self.slow
        return max(self.fast * 0.5, base * (1 + rng.uniform(-self.jitter, self.jitter)))

    def clone(self) -> "AdaptivePollingPolicy":
        return AdaptivePollingPolicy(
            fast=self.fast, slow=self.slow, ewma_alpha=self.ewma_alpha, jitter=self.jitter
        )

    def __repr__(self) -> str:
        return f"AdaptivePollingPolicy(fast={self.fast}, slow={self.slow})"
