"""Experiment-matrix specs: parse, validate, expand, derive seeds.

A spec is a JSON object::

    {
      "name": "matrix_smoke",
      "description": "...",
      "sweeps": [
        {
          "name": "chaos",
          "kind": "chaos",
          "repeats": 2,
          "axes": {
            "scenario": ["outage"],
            "shards": [1, 4],
            "shard_strategy": ["service_hash"],
            "corpus_size": [6],
            "delivery_mode": ["poll", "push"]
          },
          "knobs": {"poll_interval": 5.0}
        },
        {
          "name": "t2a",
          "kind": "t2a",
          "repeats": 2,
          "axes": {"applet": ["A2", "A5"], "fault_plan": ["baseline", "storm"]},
          "knobs": {"runs": 10, "spacing": 150.0}
        }
      ],
      "fault_plans": {"storm": {"faults": [ ... ]}}
    }

Each sweep is one runner *kind* plus a set of *axes*; the cartesian
product of a sweep's axis values, concatenated across sweeps in
declaration order, is the matrix's flat cell list.  Omitted axes take
their single default value, so a sweep only names the axes it varies.

Three kinds ship built in:

``chaos``
    The fault-injection worlds of :mod:`repro.testbed.chaos`.  Axes:
    ``scenario`` (built-in chaos scenario name), ``fault_plan``
    (``"builtin"`` keeps the scenario's plan; any other value names an
    entry of the spec's ``fault_plans``), ``shards``, ``shard_strategy``,
    ``corpus_size`` (sensor/sink pairs), ``delivery_mode``.
``t2a``
    The Figure 4 testbed: one Table 4 applet measured through
    :meth:`~repro.testbed.controller.TestController.measure_t2a`, with
    the ``fault_plan`` axis driving ``TestbedConfig.fault_plan``
    (``"baseline"`` = fault-free Figure 4 run).  Axes: ``applet``,
    ``fault_plan``.  The ``variant`` knob must name a service variant
    every swept applet offers.
``fleet``
    The NASA-wallpaper fleet of :mod:`repro.testbed.workload`.  Axes:
    ``corpus_size`` (installed applets), ``delivery_mode``.

Determinism contract: the seed of cell ``i``, repeat ``r`` is
``cell_seed(spec, i, r)`` — a SHA-256 digest of the spec's canonical
JSON, the index, and the repeat — so the same spec file always replays
the same matrix, cell by cell, regardless of ``--jobs`` or ``--cell``
slicing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.config import SHARD_STRATEGIES
from repro.engine.push import DELIVERY_MODES
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.testbed.applets import APPLET_SUITE, variant_error
from repro.testbed.chaos import CHAOS_SCENARIOS


class ExperimentSpecError(ValueError):
    """Raised for malformed experiment specs."""


#: Sentinel fault-plan values (not names into ``fault_plans``).
BUILTIN_PLAN = "builtin"  # chaos: keep the scenario's own plan
BASELINE_PLAN = "baseline"  # t2a: no fault plan (Figure 4 baseline)

KIND_CHAOS = "chaos"
KIND_T2A = "t2a"
KIND_FLEET = "fleet"
KINDS = (KIND_CHAOS, KIND_T2A, KIND_FLEET)

#: Per-kind axis vocabulary: name -> (default value, validator).
#: A sweep may only name axes of its kind; omitted axes contribute the
#: default as a single-value dimension.


def _positive_int(axis: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ExperimentSpecError(f"axis {axis!r}: need a positive integer, got {value!r}")


def _choice(options: Sequence[str]):
    def check(axis: str, value: Any) -> None:
        if value not in options:
            raise ExperimentSpecError(
                f"axis {axis!r}: {value!r} is not one of {sorted(options)}"
            )

    return check


def _any_string(axis: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise ExperimentSpecError(f"axis {axis!r}: need a non-empty string, got {value!r}")


AXES: Dict[str, Dict[str, Tuple[Any, Any]]] = {
    KIND_CHAOS: {
        "scenario": ("outage", _choice(tuple(CHAOS_SCENARIOS))),
        "fault_plan": (BUILTIN_PLAN, _any_string),
        "shards": (1, _positive_int),
        "shard_strategy": ("service_hash", _choice(SHARD_STRATEGIES)),
        "corpus_size": (1, _positive_int),
        "delivery_mode": ("poll", _choice(DELIVERY_MODES)),
    },
    KIND_T2A: {
        "applet": ("A2", _choice(tuple(APPLET_SUITE))),
        "fault_plan": (BASELINE_PLAN, _any_string),
    },
    KIND_FLEET: {
        "corpus_size": (150, _positive_int),
        "delivery_mode": ("poll", _choice(DELIVERY_MODES)),
    },
}

#: Per-kind knob vocabulary: name -> (default, type, range).  Knobs are
#: scalar settings shared by every cell of a sweep (not swept axes).  A
#: float knob must be finite, and a numeric knob must lie in its range
#: (a key of ``_RANGES``).
KNOBS: Dict[str, Dict[str, Tuple[Any, type, Optional[str]]]] = {
    KIND_CHAOS: {"poll_interval": (5.0, float, "> 0"), "drain": (90.0, float, ">= 0")},
    KIND_T2A: {
        "runs": (10, int, ">= 1"),
        "spacing": (150.0, float, "> 0"),
        "variant": ("official", str, None),
        "timeout": (1800.0, float, "> 0"),
    },
    KIND_FLEET: {"publications": (3, int, ">= 1")},
}

_RANGES = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
}

MAX_CELLS = 4096


@dataclass(frozen=True)
class Sweep:
    """One sweep: a runner kind, its axes, and shared knobs."""

    name: str
    kind: str
    repeats: int
    #: Axis name -> tuple of values, in declaration order, defaults
    #: filled in for omitted axes.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    knobs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def cell_count(self) -> int:
        """Cells this sweep expands into (product of axis sizes)."""
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, validated experiment matrix."""

    name: str
    description: str
    sweeps: Tuple[Sweep, ...]
    fault_plans: Mapping[str, FaultPlan]
    #: SHA-256 of the spec's canonical JSON — the seed root and the
    #: provenance stamp carried by every result file.
    sha256: str

    @property
    def cell_count(self) -> int:
        """Total cells across all sweeps."""
        return sum(sweep.cell_count for sweep in self.sweeps)


@dataclass(frozen=True)
class Cell:
    """One point of the matrix: a sweep plus concrete axis values."""

    index: int
    sweep: Sweep
    params: Mapping[str, Any]

    def label(self) -> str:
        """Compact ``axis=value`` string of the swept (non-default) axes."""
        defaults = {axis: default for axis, (default, _) in AXES[self.sweep.kind].items()}
        parts = [
            f"{axis}={value}"
            for axis, value in self.params.items()
            if value != defaults.get(axis)
        ]
        return " ".join(parts) if parts else "defaults"


# -- parsing ---------------------------------------------------------------------


def _parse_sweep(index: int, data: Any, plan_names: Sequence[str]) -> Sweep:
    if not isinstance(data, dict):
        raise ExperimentSpecError(f"sweeps[{index}] must be an object, got {type(data).__name__}")
    unknown = set(data) - {"name", "kind", "repeats", "axes", "knobs"}
    if unknown:
        raise ExperimentSpecError(f"sweeps[{index}]: unknown fields {sorted(unknown)}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ExperimentSpecError(
            f"sweeps[{index}]: kind must be one of {list(KINDS)}, got {kind!r}"
        )
    name = data.get("name", f"sweep{index}")
    if not isinstance(name, str) or not name:
        raise ExperimentSpecError(f"sweeps[{index}]: 'name' must be a non-empty string")
    repeats = data.get("repeats", 1)
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        raise ExperimentSpecError(
            f"sweep {name!r}: 'repeats' must be a positive integer, got {repeats!r}"
        )

    vocabulary = AXES[kind]
    raw_axes = data.get("axes", {})
    if not isinstance(raw_axes, dict):
        raise ExperimentSpecError(f"sweep {name!r}: 'axes' must be an object")
    unknown = set(raw_axes) - set(vocabulary)
    if unknown:
        raise ExperimentSpecError(
            f"sweep {name!r} (kind {kind}): unknown axes {sorted(unknown)}; "
            f"valid axes are {sorted(vocabulary)}"
        )
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    for axis, (default, validate) in vocabulary.items():
        if axis in raw_axes:
            values = raw_axes[axis]
            if not isinstance(values, list) or not values:
                raise ExperimentSpecError(
                    f"sweep {name!r}: axis {axis!r} must be a non-empty list"
                )
            if len(set(map(repr, values))) != len(values):
                raise ExperimentSpecError(f"sweep {name!r}: axis {axis!r} has duplicate values")
            for value in values:
                validate(axis, value)
            axes.append((axis, tuple(values)))
        else:
            axes.append((axis, (default,)))
    # Fault-plan axis values must resolve against the spec's plan table.
    for axis, values in axes:
        if axis != "fault_plan":
            continue
        sentinel = BUILTIN_PLAN if kind == KIND_CHAOS else BASELINE_PLAN
        for value in values:
            if value != sentinel and value not in plan_names:
                raise ExperimentSpecError(
                    f"sweep {name!r}: fault plan {value!r} is not defined in "
                    f"'fault_plans' (and is not {sentinel!r})"
                )

    knob_vocab = KNOBS[kind]
    raw_knobs = data.get("knobs", {})
    if not isinstance(raw_knobs, dict):
        raise ExperimentSpecError(f"sweep {name!r}: 'knobs' must be an object")
    unknown = set(raw_knobs) - set(knob_vocab)
    if unknown:
        raise ExperimentSpecError(
            f"sweep {name!r} (kind {kind}): unknown knobs {sorted(unknown)}; "
            f"valid knobs are {sorted(knob_vocab)}"
        )
    knobs: Dict[str, Any] = {}
    for knob, (default, typ, bound) in knob_vocab.items():
        value = raw_knobs.get(knob, default)
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, typ) or isinstance(value, bool):
            raise ExperimentSpecError(
                f"sweep {name!r}: knob {knob!r} must be {typ.__name__}, got {value!r}"
            )
        if typ is float and not math.isfinite(value):
            raise ExperimentSpecError(
                f"sweep {name!r}: knob {knob!r} must be finite, got {value!r}"
            )
        if bound is not None and not _RANGES[bound](value):
            raise ExperimentSpecError(
                f"sweep {name!r}: knob {knob!r} must be {bound}, got {value!r}"
            )
        knobs[knob] = value
    if kind == KIND_T2A:
        for applet in dict(axes)["applet"]:
            error = variant_error(applet, knobs["variant"])
            if error:
                raise ExperimentSpecError(f"sweep {name!r}: {error}")
    return Sweep(name=name, kind=kind, repeats=repeats, axes=tuple(axes), knobs=knobs)


def parse_spec(data: Any) -> ExperimentSpec:
    """Validate a decoded JSON document into an :class:`ExperimentSpec`."""
    if not isinstance(data, dict):
        raise ExperimentSpecError(f"spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"name", "description", "sweeps", "fault_plans"}
    if unknown:
        raise ExperimentSpecError(f"spec: unknown fields {sorted(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ExperimentSpecError("spec: 'name' must be a non-empty string")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ExperimentSpecError("spec: 'description' must be a string")

    raw_plans = data.get("fault_plans", {})
    if not isinstance(raw_plans, dict):
        raise ExperimentSpecError("spec: 'fault_plans' must be an object")
    fault_plans: Dict[str, FaultPlan] = {}
    for plan_name, plan_data in raw_plans.items():
        if plan_name in (BUILTIN_PLAN, BASELINE_PLAN):
            raise ExperimentSpecError(
                f"fault plan name {plan_name!r} shadows a reserved sentinel"
            )
        try:
            fault_plans[plan_name] = FaultPlan.from_json(json.dumps(plan_data))
        except FaultPlanError as exc:
            raise ExperimentSpecError(f"fault plan {plan_name!r}: {exc}") from None

    raw_sweeps = data.get("sweeps")
    if not isinstance(raw_sweeps, list) or not raw_sweeps:
        raise ExperimentSpecError("spec: 'sweeps' must be a non-empty list")
    sweeps = tuple(
        _parse_sweep(index, entry, tuple(fault_plans))
        for index, entry in enumerate(raw_sweeps)
    )
    names = [sweep.name for sweep in sweeps]
    if len(set(names)) != len(names):
        raise ExperimentSpecError(f"spec: duplicate sweep names in {names}")

    spec = ExperimentSpec(
        name=name,
        description=description,
        sweeps=sweeps,
        fault_plans=fault_plans,
        sha256=spec_sha256(data),
    )
    if spec.cell_count > MAX_CELLS:
        raise ExperimentSpecError(
            f"spec expands to {spec.cell_count} cells; the limit is {MAX_CELLS}"
        )
    return spec


def spec_sha256(data: Any) -> str:
    """Content hash of the spec's canonical JSON (the seed root)."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_spec(path: str) -> ExperimentSpec:
    """Load and validate a spec from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ExperimentSpecError(f"cannot read spec {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExperimentSpecError(f"invalid spec JSON in {path}: {exc}") from None
    return parse_spec(data)


# -- expansion + seeds --------------------------------------------------------------


def expand_cells(spec: ExperimentSpec) -> List[Cell]:
    """The matrix's flat cell list, in deterministic declaration order."""
    cells: List[Cell] = []
    for sweep in spec.sweeps:
        names = [axis for axis, _ in sweep.axes]
        for combo in itertools.product(*(values for _, values in sweep.axes)):
            cells.append(
                Cell(index=len(cells), sweep=sweep, params=dict(zip(names, combo)))
            )
    return cells


def cell_seed(spec: ExperimentSpec, index: int, repeat: int = 0) -> int:
    """The deterministic seed of one (cell, repeat) run.

    Derives from the spec's content hash, so editing the spec reseeds
    the whole matrix, while re-running an unchanged spec — serially, in
    parallel, or one ``--cell`` at a time — replays identical runs.
    """
    digest = hashlib.sha256(f"{spec.sha256}:{index}:{repeat}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


def resolve_fault_plan(spec: ExperimentSpec, cell: Cell) -> Optional[FaultPlan]:
    """The cell's fault plan, or ``None`` for builtin/baseline sentinels."""
    name = cell.params.get("fault_plan")
    if name in (None, BUILTIN_PLAN, BASELINE_PLAN):
        return None
    return spec.fault_plans[name]
