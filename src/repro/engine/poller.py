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
from math import exp, isfinite, log
from random import NV_MAGICCONST

from repro.simcore.rng import Rng


def _finite(name: str, value: float) -> float:
    """``value`` unchanged, or ``ValueError`` naming the field when it is
    NaN or ±inf (which every comparison below would let through: a NaN
    fails every bound test, and ``max(minimum, nan)`` is ``minimum``)."""
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
    tail (~15 min); see ``tests/test_paper_fidelity.py::test_fig4_*``.
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
        self.median = _finite("median", median)
        self.sigma = _finite("sigma", sigma)
        self.minimum = _finite("minimum", minimum)
        if median <= 0 or minimum < 0:
            raise ValueError("median must be positive and minimum non-negative")
        if not 0 <= inflation_prob <= 1:
            raise ValueError(f"inflation_prob must be in [0, 1], got {inflation_prob}")
        self.inflation_prob = inflation_prob
        self.inflation_min = _finite("inflation_min", inflation_min)
        self.inflation_max = _finite("inflation_max", inflation_max)
        self._mu = log(median)

    def next_interval(self, rng: Rng) -> float:
        """``max(minimum, rng.lognormal_median(median, sigma))``, times
        ``rng.uniform(inflation_min, inflation_max)`` first when
        ``rng.bernoulli(inflation_prob)`` — written out over the same
        stream, as :meth:`LognormalLatency.sample` writes out the hop
        draw: the standard library's Kinderman–Monahan loop, then
        ``exp``, with ``log(median)`` taken once.  The same ``random()``
        calls and float operations in the same order, so the interval
        and the stream state are bit-identical, in one frame instead of
        five.
        """
        random = rng._random.random  # the stream lognormal_median draws from
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -log(u2):
                break
        interval = exp(self._mu + z * self.sigma)
        if random() < self.inflation_prob:
            low = self.inflation_min
            interval *= low + (self.inflation_max - low) * random()
        minimum = self.minimum
        # ``max(minimum, interval)``, whose tie goes to ``minimum``
        return interval if interval > minimum else minimum

    def clone(self) -> "ProductionPollingPolicy":
        """``self``: parameters only, nothing learned, so nothing to keep
        apart — a fleet's applets share the one object."""
        return self

    def __repr__(self) -> str:
        return f"ProductionPollingPolicy(median={self.median}, sigma={self.sigma})"


class FixedPollingPolicy(PollingPolicy):
    """Poll at a fixed interval — E3's 1 s frequent-polling engine."""

    def __init__(self, interval: float = 1.0) -> None:
        if not isfinite(interval) or interval <= 0:
            raise ValueError(f"interval must be finite and positive, got {interval}")
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
    ``fast`` (active trigger) and ``slow`` (idle trigger).  It recovers
    most of E3's latency win at a fraction of its poll volume
    (``tests/test_paper_fidelity.py::test_s6_polling_policy_design_space``).
    """

    def __init__(
        self,
        fast: float = 5.0,
        slow: float = 300.0,
        ewma_alpha: float = 0.3,
        jitter: float = 0.1,
    ) -> None:
        _finite("slow", slow)
        _finite("jitter", jitter)
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
