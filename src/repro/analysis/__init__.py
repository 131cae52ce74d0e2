"""The §3.2 analyses over crawled snapshots.

Everything here consumes :class:`~repro.crawler.snapshot.CrawlSnapshot`
objects (what the crawler scraped), not the generator's ground truth —
the same separation the paper had between collection and analysis.

* :mod:`repro.analysis.classify` — keyword service classification into
  the 14 Table 1 categories (standing in for the authors' manual pass).
* :mod:`repro.analysis.tables` — Tables 1, 2, and 3.
* :mod:`repro.analysis.heatmap` — Figure 2's interaction matrix.
* :mod:`repro.analysis.distributions` — Figure 3's add-count tail and
  the user-contribution tail.
* :mod:`repro.analysis.usercontrib` — user channels vs services (§3.2
  "Applet Properties").
* :mod:`repro.analysis.growthstats` — the weekly growth paragraph.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "classify": ("ServiceClassifier",),
    "tables": ("table1", "table2", "table3", "UR_ET_AL_DATASET"),
    "heatmap": ("interaction_heatmap", "heatmap_intensity"),
    "distributions": ("ranked_add_counts", "add_count_top_shares", "log_rank_series"),
    "usercontrib": ("user_contribution_stats", "UserContribution"),
    "growthstats": ("growth_percentages", "weekly_series"),
    "iotstats": ("iot_shares", "IotShares"),
    "churn": ("churn_between", "weekly_churn", "ChurnReport"),
    "permissions_study": ("run_permission_study", "PermissionStudyResult"),
    "history": ("fit_exponential", "GrowthFit", "STUDY_POINTS"),
})
