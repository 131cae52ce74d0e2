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
    plus P2-quantile pooling (reusing :mod:`repro.obs.quantiles`).
:mod:`repro.experiments.results`
    Cell/matrix result records and their deterministic JSON form.
"""

from repro.experiments.spec import (
    Cell,
    ExperimentSpec,
    ExperimentSpecError,
    Sweep,
    cell_seed,
    expand_cells,
    load_spec,
)
from repro.experiments.results import (
    CellResult,
    MatrixResults,
    RepeatOutcome,
)
from repro.experiments.runner import run_cell, run_matrix
from repro.experiments.stats import (
    bootstrap_median_interval,
    mean_confidence_interval,
    pooled_quartiles,
)

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentSpec",
    "ExperimentSpecError",
    "MatrixResults",
    "RepeatOutcome",
    "Sweep",
    "bootstrap_median_interval",
    "cell_seed",
    "expand_cells",
    "load_spec",
    "mean_confidence_interval",
    "pooled_quartiles",
    "run_cell",
    "run_matrix",
]
