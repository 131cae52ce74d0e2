"""The study window and its measured growth rates.

§3.2: "Compared to 11/24/2016, on 4/1/2017, the number of services,
triggers, actions, and applet add count increase by 11%, 31%, 27%, and
19%, respectively."  The paper took 25 weekly snapshots (one per week,
Nov 2016 - Apr 2017); we index them week 0..24.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Number of weekly snapshots (Table 2: "25, one each week").
WEEKS_IN_STUDY = 25

#: Final snapshot index (week 24 ≈ 4/1/2017).
FINAL_WEEK = WEEKS_IN_STUDY - 1

#: The §3.2 growth of each quantity across the window.
GROWTH_TARGETS: Dict[str, float] = {
    "services": 0.11,
    "triggers": 0.31,
    "actions": 0.27,
    "add_count": 0.19,
    "applets": 0.16,  # not published; implied by add count and new-service growth
}


def in_window_fraction(growth: float) -> float:
    """Fraction of final-week entities created during the window.

    If the count grew by ``growth`` over the window, then
    ``1 - 1/(1+growth)`` of the final entities did not exist at week 0.
    """
    if growth < 0:
        raise ValueError(f"growth must be non-negative, got {growth}")
    return 1.0 - 1.0 / (1.0 + growth)


def conditional_fraction(child_growth: float, parent_growth: float) -> float:
    """In-window fraction for children of mostly-pre-window parents.

    A child entity (a trigger on a service) is forced in-window when its
    parent was created in-window.  To hit an overall in-window fraction
    ``f_child`` given the parent fraction ``f_parent`` (children are
    forced in-window for in-window parents), children of *pre-window*
    parents must be in-window with probability
    ``(f_child - f_parent) / (1 - f_parent)``.
    """
    f_child = in_window_fraction(child_growth)
    f_parent = in_window_fraction(parent_growth)
    if f_child <= f_parent:
        return 0.0
    return (f_child - f_parent) / (1.0 - f_parent)


@dataclass(frozen=True)
class GrowthSchedule:
    """Creation-week assignment policy for generated entities."""

    weeks: int = WEEKS_IN_STUDY

    def assign_created_week(self, rng, growth: float) -> int:
        """Week 0 for pre-window entities, else uniform in 1..final."""
        return self.assign_with_fraction(rng, in_window_fraction(growth))

    def assign_with_fraction(self, rng, fraction: float) -> int:
        """Week 0 with probability ``1 - fraction``, else uniform in-window."""
        if rng.bernoulli(fraction):
            return rng.randint(1, self.weeks - 1)
        return 0


def snapshot_date(week: int) -> str:
    """ISO date of a weekly snapshot (week 0 = 2016-11-24, weekly steps)."""
    import datetime

    start = datetime.date(2016, 11, 24)
    return (start + datetime.timedelta(weeks=week)).isoformat()
