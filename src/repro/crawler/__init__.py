"""The §3.1 data-collection pipeline.

"To begin with, we parse the IFTTT partner service index page to get a
list of all services.  Then through reverse engineering the URLs of
applets' pages, we observe that the URLs can be systematically retrieved
by enumerating a six-digit applet ID. ... Every week from November 2016
to April 2017, we used the tool to take a 'snapshot' of the IFTTT
ecosystem."

* :class:`~repro.crawler.crawler.IftttCrawler` — index parse + service
  pages + applet-id enumeration against a
  :class:`~repro.frontend.site.SimulatedIftttSite`.
* :mod:`repro.crawler.parser` — the HTML scrapers.
* :class:`~repro.crawler.snapshot.CrawlSnapshot` — one week's scrape.
* :class:`~repro.crawler.store.SnapshotStore` — the multi-week archive
  with growth queries and JSON persistence.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "parser": ("parse_index_page", "parse_service_page", "parse_applet_page", "ParseError"),
    "snapshot": ("CrawlSnapshot", "CrawledService", "CrawledApplet"),
    "crawler": ("IftttCrawler",),
    "store": ("SnapshotStore",),
})
