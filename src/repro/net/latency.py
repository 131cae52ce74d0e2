"""Per-hop latency models.

The paper's Table 5 timeline implies sub-100 ms LAN hops (trigger observed
by the proxy at t=0.04 s) and WAN round trips of a few hundred ms.  These
models supply calibrated per-hop delays; the dominant §4 delays come from
the engine's polling schedule, not the network (the authors verified the
network was never the bottleneck).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import exp, isfinite, log
from random import NV_MAGICCONST

from repro.simcore.rng import Rng


def _finite_non_negative(name: str, value: float) -> float:
    """``value`` as a float, or ``ValueError`` naming the field."""
    value = float(value)
    if not (isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


class LatencyModel(ABC):
    """Produces a one-way delay (seconds) for each message on a link."""

    @abstractmethod
    def sample(self, rng: Rng, size_bytes: int = 0) -> float:
        """Draw a one-way delay for a message of the given size."""


class FixedLatency(LatencyModel):
    """Constant delay (useful for deterministic unit tests)."""

    def __init__(self, delay: float) -> None:
        self.delay = _finite_non_negative("delay", delay)

    def sample(self, rng: Rng, size_bytes: int = 0) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay!r})"


class LognormalLatency(LatencyModel):
    """Lognormal delay (median/sigma), optionally plus per-byte transfer cost.

    Lognormal is the standard shape for internet path RTT components: most
    samples near the median, occasional multi-x stragglers.
    """

    def __init__(
        self,
        median: float,
        sigma: float = 0.3,
        per_byte: float = 0.0,
        floor: float = 0.0,
    ) -> None:
        median = float(median)
        if not (isfinite(median) and median > 0.0):
            raise ValueError(f"median must be finite and positive, got {median}")
        self.median = median
        self.sigma = _finite_non_negative("sigma", sigma)
        self.per_byte = _finite_non_negative("per_byte", per_byte)
        self.floor = _finite_non_negative("floor", floor)
        self._mu = log(median)

    def sample(self, rng: Rng, size_bytes: int = 0) -> float:
        """``max(floor, rng.lognormal_median(median, sigma)) + per_byte * size``
        (``median`` in place of the draw when ``sigma`` is 0).

        The draw is the standard library's ``lognormvariate`` (its
        Kinderman–Monahan ``normalvariate`` loop, then ``exp``) written
        out over the same stream, with ``log(median)`` taken once: the
        same ``random()`` calls and float operations in the same order,
        so the value and the stream state are bit-identical, in one
        frame instead of four.
        """
        sigma = self.sigma
        if sigma:
            random = rng._random.random  # the stream lognormal_median draws from
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                zz = z * z / 4.0
                if zz <= -log(u2):
                    break
            base = exp(self._mu + z * sigma)
        else:
            base = self.median
        floor = self.floor
        if not base > floor:  # max(floor, base)
            base = floor
        return base + self.per_byte * size_bytes

    def __repr__(self) -> str:
        return f"LognormalLatency(median={self.median!r}, sigma={self.sigma!r})"


def lan_latency() -> LatencyModel:
    """Home-LAN hop: ~5-30 ms one way (WiFi + hub processing)."""
    return LognormalLatency(median=0.012, sigma=0.5, floor=0.002)


def wan_latency() -> LatencyModel:
    """Residential-to-cloud WAN hop: ~40-150 ms one way."""
    return LognormalLatency(median=0.060, sigma=0.45, floor=0.015)


def cloud_internal_latency() -> LatencyModel:
    """Cloud-to-cloud hop (engine to partner service): ~15-60 ms one way."""
    return LognormalLatency(median=0.025, sigma=0.4, floor=0.005)
