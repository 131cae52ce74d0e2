"""Seeded random source with the distributions the reproduction needs.

All stochastic behaviour in the library (polling intervals, network
latencies, ecosystem popularity, workload arrivals) flows through
:class:`Rng` so that every experiment is reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class Rng:
    """A named, seeded random stream.

    Thin wrapper over :class:`random.Random` adding the distributions
    used for calibration (exponential, Poisson, lognormal parameterized
    by median/sigma) and convenience sampling helpers.

    ``fork(name)`` derives an independent child stream deterministically,
    so subsystems can be given their own streams without coupling their
    consumption order.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)

    def fork(self, name: str) -> "Rng":
        """Derive an independent child stream keyed by ``name``.

        Uses a content hash (not Python's salted ``hash()``) so forked
        seeds are identical across processes and sessions.
        """
        blob = f"{self.seed}|{self.name}|{name}".encode()
        child_seed = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") & 0x7FFFFFFFFFFFFFFF
        return Rng(seed=child_seed, name=f"{self.name}/{name}")

    # -- primitive draws --------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in [low, high)."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive.

        For plain ints this is ``random.randint``'s own draw (``randrange``
        → ``_randbelow``: rejection-sample ``getrandbits`` over the width)
        in one frame, so the value and the stream are bit-identical;
        anything else goes to ``random.randint`` for its checks.
        """
        if type(low) is int and type(high) is int and low <= high:
            width = high - low + 1
            getrandbits = self._random.getrandbits
            bits = width.bit_length()
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            return low + r
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """k distinct elements sampled without replacement."""
        return self._random.sample(seq, k)

    # -- distributions -----------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal_median(self, median: float, sigma: float) -> float:
        """Lognormal parameterized by its median and log-space sigma.

        Convenient for latency calibration: half the draws land below
        ``median`` regardless of ``sigma``, and ``sigma`` widens the tail.
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return self._random.lognormvariate(math.log(median), sigma)

    def normal(self, mean: float, stddev: float) -> float:
        """Gaussian draw."""
        return self._random.gauss(mean, stddev)

    def poisson(self, lam: float) -> int:
        """Poisson draw (Knuth for small lambda, normal approx for large)."""
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam}")
        if lam == 0:
            return 0
        if lam > 50:
            return max(0, int(round(self._random.gauss(lam, math.sqrt(lam)))))
        threshold = math.exp(-lam)
        k, product = 0, 1.0
        while True:
            product *= self._random.random()
            if product <= threshold:
                return k
            k += 1

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self._random.random() < p

    def __repr__(self) -> str:
        return f"<Rng {self.name!r} seed={self.seed}>"


def quantiles(values: Sequence[float], points: Sequence[float]) -> List[float]:
    """Linear-interpolation quantiles of ``values`` at each q in ``points``.

    A dependency-free helper used throughout the analysis and test code.
    """
    if not values:
        raise ValueError("cannot take quantiles of an empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    out: List[float] = []
    for q in points:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile point must be in [0, 1], got {q}")
        pos = q * (n - 1)
        low = int(math.floor(pos))
        high = min(low + 1, n - 1)
        frac = pos - low
        value = ordered[low] * (1 - frac) + ordered[high] * frac
        # Rounding can step outside the neighbours (two subnormal halves
        # sum to 0.0); a quantile never leaves them.
        out.append(min(max(value, ordered[low]), ordered[high]))
    return out
