"""Declarative experiment matrices (ROADMAP: topology x scale x fault matrix).

One JSON spec sweeps the reproduction's axes — ``shards`` x
``shard_strategy`` x ``corpus_size`` x ``fault_plan`` x
``delivery_mode`` — and expands into a flat list of *cells*.  Every cell runs deterministically (its seed derives from the
spec's content hash and the cell index, never from the host), emits a
per-cell metrics snapshot, and folds into an aggregated results table
with confidence intervals.  ``repro experiments SPEC.json`` is the CLI;
``make experiments-smoke`` gates CI on the committed
``EXPERIMENTS/matrix_smoke.json`` being byte-identical run over run.

Modules
-------

:mod:`repro.experiments.spec`
    Spec parsing, validation, cell expansion, and seed derivation.
:mod:`repro.experiments.runner`
    Per-cell execution (chaos / t2a / fleet kinds) and matrix
    orchestration with subprocess-isolated cells.
:mod:`repro.experiments.stats`
    Dependency-free t-intervals and bootstrap confidence intervals,
    plus exact quartiles of a pooled sample.
:mod:`repro.experiments.results`
    Cell/matrix result records and their deterministic JSON form.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "spec": (
        "Cell", "ExperimentSpec", "ExperimentSpecError", "Sweep", "cell_seed", "expand_cells",
        "load_spec",
    ),
    "results": ("CellResult", "MatrixResults", "RepeatOutcome"),
    "runner": ("run_cell", "run_matrix"),
    "stats": ("bootstrap_median_interval", "mean_confidence_interval", "pooled_quartiles"),
})
