"""Rendering for dead-letter replay catch-up-burst comparisons.

``repro chaos --replay`` runs the same scenario twice — once with
batched action dispatch, once single-shot — and prints the two
catch-up bursts side by side.  §6's fleet-load argument is about
exactly this shape of traffic: recovery wants to send everything at
once, and batching (one request per ``REPLAY_BATCH_LIMIT`` actions,
the paper's polling ``limit`` k) is what keeps the instantaneous request
spike survivable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.engine.resilience import REPLAY_BATCH_LIMIT
from repro.reporting.table import render_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.chaos import ReplayReport


def _fmt_rate(value: float) -> str:
    if value == float("inf"):
        return "inf"
    return f"{value:.2f}"


def render_replay_comparison(batched: "ReplayReport", unbatched: "ReplayReport") -> str:
    """A side-by-side table of the batched vs unbatched catch-up burst."""
    rows: List[List[Any]] = [
        ["dead letters replayed", batched.replayed, unbatched.replayed],
        ["requests sent", batched.requests_sent, unbatched.requests_sent],
        ["delivered", batched.delivered, unbatched.delivered],
        ["re-failed", batched.refailed, unbatched.refailed],
        ["burst duration (s)", f"{batched.duration:.2f}", f"{unbatched.duration:.2f}"],
        [
            "burst req/s",
            _fmt_rate(batched.requests_per_second),
            _fmt_rate(unbatched.requests_per_second),
        ],
        [
            "burst/steady ratio",
            _fmt_rate(batched.burst_ratio),
            _fmt_rate(unbatched.burst_ratio),
        ],
        [
            "replayed t2a mean (s)",
            f"{batched.t2a_mean():.2f}",
            f"{unbatched.t2a_mean():.2f}",
        ],
        [
            "replayed t2a max (s)",
            f"{batched.t2a_max():.2f}",
            f"{unbatched.t2a_max():.2f}",
        ],
    ]
    header = f"batched (limit={REPLAY_BATCH_LIMIT})"
    return render_table(["catch-up burst", header, "unbatched"], rows)
