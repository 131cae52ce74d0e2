"""Simulated ifttt.com frontend.

Renders the pages the paper's crawler scraped — the partner-service index
page, per-service pages, and per-applet pages addressed by six-digit
applet id — from a :class:`~repro.ecosystem.corpus.Corpus`, as of any
study week.  The page structure mirrors what the paper reverse-engineered
(§3.1): applet pages expose name, description, trigger, trigger service,
action, action service, author, and add count.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "pages": ("render_index_page", "render_service_page", "render_applet_page"),
    "site": ("SimulatedIftttSite",),
})
