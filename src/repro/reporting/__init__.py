"""Rendering helpers for tables and figure series.

The CLI prints the same rows/series the paper reports;
these helpers keep that presentation code out of the analysis layer.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "table": ("render_table",),
    "cdf": ("cdf_points", "summarize_latencies"),
    "figures": (
        "write_csv", "export_cdf", "export_heatmap", "export_rank_series", "export_all_figures",
    ),
    "metrics_report": ("render_metrics_summary", "write_metrics_json"),
    "experiment_report": ("render_experiment_table",),
    "replay_report": ("render_replay_comparison",),
    "adaptive_report": ("adaptive_delivery_violations", "render_adaptive_comparison"),
})
