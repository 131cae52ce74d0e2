"""Bridge from the raw :class:`~repro.simcore.trace.Trace` to metrics.

The bridge folds a trace into a :class:`~repro.obs.metrics.MetricsRegistry`
in one pass.  Everything it derives is also available live — the
engine, the network, and the services emit the same families directly
when built with a registry — so the fold is the reference the live
instrumentation is checked against: ``tests/test_obs_integration.py``
asserts the folded trace and the live instruments agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.simcore.trace import Trace

#: Record kinds whose per-applet sent -> response pairing yields a
#: round-trip latency histogram.
_PAIRED_KINDS: Tuple[Tuple[str, str, str], ...] = (
    ("engine_poll_sent", "engine_poll_response", "poll_rtt_seconds"),
    ("engine_action_sent", "engine_action_ack", "action_rtt_seconds"),
)


def bridge_trace(
    trace: Trace,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "trace",
) -> MetricsRegistry:
    """Fold a trace into pre-aggregated metrics (single pass).

    Produces, under ``<prefix>.``:

    * ``records{kind=,source=}`` — counter per record kind and vantage
      point (the :meth:`~repro.simcore.trace.Trace.kinds` histogram,
      labelled);
    * ``poll_rtt_seconds`` / ``action_rtt_seconds`` — round-trip
      histograms from per-applet FIFO pairing of sent/response records
      (the engine serializes polls per applet, so FIFO pairing is exact
      for polls; overlapping actions of one applet pair approximately);
    * ``poll_interval_seconds`` — gaps between successive polls of the
      same applet, the quantity §4 blames for T2A latency;
    * ``poll_batch_new`` — new-events-per-poll, from the response
      records' ``new`` detail.

    Returns the registry (a fresh one unless ``registry`` is given).
    """
    registry = registry or MetricsRegistry()
    scope = registry.scoped(prefix)
    pending: Dict[Tuple[str, int], List[float]] = {}
    last_poll_at: Dict[int, float] = {}
    rtt_names = {sent: (response, name) for sent, response, name in _PAIRED_KINDS}
    responses = {response: name for _, response, name in _PAIRED_KINDS}
    for rec in trace:
        scope.counter("records", kind=rec.kind, source=rec.source).inc()
        applet_id = rec.get("applet_id")
        if applet_id is None:
            continue
        if rec.kind in rtt_names:
            pending.setdefault((rec.kind, applet_id), []).append(rec.time)
            if rec.kind == "engine_poll_sent":
                previous = last_poll_at.get(applet_id)
                if previous is not None:
                    scope.histogram("poll_interval_seconds").observe(rec.time - previous)
                last_poll_at[applet_id] = rec.time
        elif rec.kind in responses:
            sent_kind = {resp: sent for sent, resp, _ in _PAIRED_KINDS}[rec.kind]
            queue = pending.get((sent_kind, applet_id))
            if queue:
                scope.histogram(responses[rec.kind]).observe(rec.time - queue.pop(0))
            if rec.kind == "engine_poll_response":
                scope.histogram("poll_batch_new", bounds=COUNT_BUCKETS).observe(
                    rec.get("new", 0)
                )
    return registry
