"""Result records for experiment matrices, with a deterministic JSON form.

Every float that lands in a result file passes through :func:`_round`
(six decimals), every dict is serialized with sorted keys, and nothing
wall-clock-dependent is stored — so the same spec produces *byte
identical* ``results.json`` and per-cell files run after run, which is
exactly what ``make experiments-smoke`` diffs in CI.  Timing and host
details go to a separate, un-gated ``run_meta.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.stats import (
    bootstrap_median_interval,
    mean_confidence_interval,
    pooled_quartiles,
)
from repro.simcore.rng import quantiles as exact_quantiles

#: Confidence level every cell interval is reported at.
CONFIDENCE = 0.95


def _round(value: float) -> float:
    """Canonical float rounding for serialized results."""
    return round(float(value), 6)


def _round_seq(values: Sequence[float]) -> List[float]:
    return [_round(v) for v in values]


def snapshot_sha256(snapshot: Mapping[str, Any]) -> str:
    """Content hash of a metrics snapshot (canonical JSON)."""
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RepeatOutcome:
    """One deterministic run of a cell: samples, counters, snapshot."""

    repeat: int
    seed: int
    #: Latency samples (T2A seconds) the run produced, in arrival order.
    samples: List[float]
    #: Integer/float counters the runner extracted (kind-specific).
    counters: Dict[str, Any]
    #: Deterministic metrics snapshot (wall-clock families filtered).
    snapshot: Dict[str, Any] = field(repr=False)

    def median(self) -> Optional[float]:
        if not self.samples:
            return None
        return exact_quantiles(self.samples, [0.5])[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "repeat": self.repeat,
            "seed": self.seed,
            "n": len(self.samples),
            "samples": _round_seq(self.samples),
            "counters": dict(sorted(self.counters.items())),
            "snapshot_sha256": snapshot_sha256(self.snapshot),
        }


@dataclass
class CellResult:
    """One matrix cell, aggregated over its repeats."""

    index: int
    sweep: str
    kind: str
    params: Dict[str, Any]
    repeats: List[RepeatOutcome]

    # -- aggregates ------------------------------------------------------------

    @property
    def pooled_samples(self) -> List[float]:
        """Every repeat's samples, concatenated in repeat order."""
        pooled: List[float] = []
        for outcome in self.repeats:
            pooled.extend(outcome.samples)
        return pooled

    def quartiles(self) -> Optional[Tuple[float, float, float]]:
        """Exact p25/p50/p75 of the pooled T2A samples."""
        return pooled_quartiles(self.pooled_samples)

    def median_interval(self) -> Optional[Dict[str, Any]]:
        """A confidence interval for the cell's median T2A.

        With two or more repeats: a Student-t interval over the
        repeat-level medians (run-to-run variability).  With a single
        repeat: a seeded percentile bootstrap over its samples
        (within-run variability).  ``None`` when there is not enough
        data for either.
        """
        medians = [m for m in (r.median() for r in self.repeats) if m is not None]
        if len(medians) >= 2:
            interval = mean_confidence_interval(medians, CONFIDENCE)
            if interval is None:
                return None
            center, lo, hi = interval
            method = "t"
        else:
            pooled = self.pooled_samples
            if not self.repeats:
                return None
            interval = bootstrap_median_interval(
                pooled, seed=self.repeats[0].seed, confidence=CONFIDENCE
            )
            if interval is None:
                return None
            center, lo, hi = interval
            method = "bootstrap"
        return {
            "center": _round(center),
            "lo": _round(lo),
            "hi": _round(hi),
            "confidence": CONFIDENCE,
            "method": method,
        }

    def counters_total(self) -> Dict[str, Any]:
        """Integer counters summed across repeats (floats are skipped)."""
        totals: Dict[str, int] = {}
        for outcome in self.repeats:
            for key, value in outcome.counters.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    continue
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))

    def to_dict(self) -> Dict[str, Any]:
        quartiles = self.quartiles()
        return {
            "index": self.index,
            "sweep": self.sweep,
            "kind": self.kind,
            "params": dict(sorted(self.params.items())),
            "n": len(self.pooled_samples),
            "t2a_quartiles": _round_seq(quartiles) if quartiles else None,
            "median_ci": self.median_interval(),
            "counters": self.counters_total(),
            "repeats": [outcome.to_dict() for outcome in self.repeats],
        }

    @staticmethod
    def cell_filename(index: int) -> str:
        return f"cell_{index:04d}.json"

    def write(self, cells_dir: str) -> str:
        """Write the per-cell artifact (summary + full snapshots)."""
        import os

        path = os.path.join(cells_dir, self.cell_filename(self.index))
        payload = self.to_dict()
        payload["snapshots"] = [
            {"repeat": outcome.repeat, "snapshot": outcome.snapshot}
            for outcome in self.repeats
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @staticmethod
    def read(path: str) -> Dict[str, Any]:
        """Load a per-cell artifact written by :meth:`write`."""
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)


@dataclass
class MatrixResults:
    """The aggregated matrix: one summary dict per cell, in index order."""

    spec_name: str
    spec_sha256: str
    description: str
    cells: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_name": self.spec_name,
            "spec_sha256": self.spec_sha256,
            "description": self.description,
            "cell_count": len(self.cells),
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON of the aggregated results."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_cell_dicts(
        spec_name: str,
        spec_sha256: str,
        description: str,
        cell_dicts: Sequence[Dict[str, Any]],
    ) -> "MatrixResults":
        """Assemble from per-cell dicts (full snapshots are dropped here;
        they stay in the per-cell files)."""
        cells = []
        for data in sorted(cell_dicts, key=lambda d: d["index"]):
            summary = {k: v for k, v in data.items() if k != "snapshots"}
            cells.append(summary)
        return MatrixResults(
            spec_name=spec_name,
            spec_sha256=spec_sha256,
            description=description,
            cells=cells,
        )
