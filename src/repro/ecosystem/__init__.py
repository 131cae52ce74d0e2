"""Synthetic IFTTT ecosystem, calibrated to §3.2.

The paper crawled ifttt.com weekly for six months; the production corpus
(408 services, 1490 triggers, 957 actions, ~320K public applets, ~23M
adds, 135K user channels as of the 3/25/2017 snapshot) is not available,
so this package generates a corpus with the same published statistics:

* Table 1's category mix (14 categories, 51.7% IoT services),
* heavy-tailed applet popularity (top 1% of applets ≈ 84% of adds),
* heavy-tailed user contribution (top 1% of users ≈ 18% of applets,
  98% of applets user-made carrying 86% of adds),
* the Figure 2 trigger-category × action-category interaction structure
  (fitted by iterative proportional fitting to Table 1's add-count
  marginals), and
* the measured weekly growth (+11% services, +31% triggers, +27%
  actions, +19% adds over the measurement window).

Every §3 analysis and the crawler pipeline run against this corpus.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "categories": ("Category", "CATEGORIES", "iot_categories"),
    "corpus": ("ServiceRecord", "TriggerRecord", "ActionRecord", "AppletRecord", "Corpus"),
    "model": ("EcosystemParams",),
    "popularity": ("zipf_add_counts", "top_share", "fit_zipf_alpha"),
    "interactions": ("fit_interaction_matrix",),
    "generator": ("EcosystemGenerator",),
    "growth": ("GrowthSchedule", "WEEKS_IN_STUDY"),
})
