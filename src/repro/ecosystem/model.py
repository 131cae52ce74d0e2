"""Ecosystem generation parameters.

Defaults reproduce the paper's 3/25/2017 snapshot: 408 services, 1490
triggers, 957 actions, 320K applets, ~23M total adds, 135,544 user
channels.  ``scale`` shrinks applet/user counts proportionally for fast
tests and benches (distributional shape is scale-free; the calibration
tests verify the headline ratios hold at reduced scale).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EcosystemParams:
    """Knobs for :class:`~repro.ecosystem.generator.EcosystemGenerator`.

    Attributes
    ----------
    n_services, n_triggers, n_actions:
        Endpoint-universe sizes (not scaled — the service side is small).
    n_applets, total_add_count, n_user_channels:
        Corpus sizes at the final snapshot, before ``scale``.
    scale:
        Multiplier in (0, 1] applied to applets / adds / users.
    user_made_applet_fraction:
        Share of applets published by end users (98% in §3.2).
    user_made_add_fraction:
        Share of adds carried by user-made applets (86%).
    applet_zipf_alpha, applet_zipf_shift_frac:
        Popularity skew (shifted Zipf); fitted so the top 1% of applets
        carry ~84% of adds, the top 10% ~97%, and the top applet ~0.5%
        (Figure 3's plateau); the shift scales with the applet count.
    user_zipf_alpha:
        Contribution skew; top 1% of users publish ~18% of applets.
    seed:
        Master RNG seed.
    """

    n_services: int = 408
    n_triggers: int = 1490
    n_actions: int = 957
    n_applets: int = 320_000
    total_add_count: int = 23_000_000
    n_user_channels: int = 135_544
    scale: float = 1.0
    user_made_applet_fraction: float = 0.98
    user_made_add_fraction: float = 0.86
    applet_zipf_alpha: float = 1.5
    applet_zipf_shift_frac: float = 100.0 / 320_000.0
    user_zipf_alpha: float = 0.66
    seed: int = 2017

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        for name in ("n_services", "n_triggers", "n_actions", "n_applets",
                     "total_add_count", "n_user_channels"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.user_made_applet_fraction <= 1:
            raise ValueError("user_made_applet_fraction must be in [0, 1]")

    @property
    def scaled_applets(self) -> int:
        """Applet count after scaling."""
        return max(100, int(self.n_applets * self.scale))

    @property
    def scaled_add_count(self) -> int:
        """Total add count after scaling."""
        return max(1000, int(self.total_add_count * self.scale))

    @property
    def scaled_users(self) -> int:
        """User-channel count after scaling."""
        return max(50, int(self.n_user_channels * self.scale))
