"""The declarative experiment matrix (repro.experiments).

Covers the ISSUE-9 contract: spec validation errors, cell expansion
counts, seed stability (same spec → identical cell results, snapshots
included), serial / ``--jobs`` / subprocess equivalence, and the CLI
round trip.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    ExperimentSpecError,
    cell_seed,
    expand_cells,
    load_spec,
    run_cell,
)
from repro.experiments.runner import run_matrix
from repro.experiments.spec import parse_spec, spec_sha256
from repro.experiments.stats import (
    bootstrap_median_interval,
    mean_confidence_interval,
    pooled_quartiles,
    t_critical,
)
from repro.reporting import render_experiment_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SPEC = os.path.join(REPO, "EXPERIMENTS", "matrix_smoke.json")
FULL_SPEC = os.path.join(REPO, "EXPERIMENTS", "matrix_full.json")


def tiny_spec_data(**overrides):
    """A minimal valid spec exercising all three kinds, fast to run."""
    data = {
        "name": "tiny",
        "description": "unit-test matrix",
        "sweeps": [
            {
                "name": "t2a",
                "kind": "t2a",
                "repeats": 2,
                "axes": {"applet": ["A5"], "fault_plan": ["baseline", "plan_a"]},
                "knobs": {"runs": 3, "spacing": 60.0},
            },
            {
                "name": "chaos",
                "kind": "chaos",
                "repeats": 1,
                "axes": {"scenario": ["outage"], "delivery_mode": ["poll", "push"]},
                "knobs": {"drain": 30.0},
            },
            {
                "name": "fleet",
                "kind": "fleet",
                "repeats": 1,
                "axes": {"corpus_size": [40]},
                "knobs": {"publications": 2},
            },
        ],
        "fault_plans": {
            "plan_a": {
                "faults": [
                    {"kind": "service_outage", "service": "philips_hue",
                     "at": 60.0, "duration": 60.0}
                ]
            }
        },
    }
    data.update(overrides)
    return data


# -- spec validation -------------------------------------------------------------------


class TestSpecValidation:
    def test_valid_spec_parses(self):
        spec = parse_spec(tiny_spec_data())
        assert spec.name == "tiny"
        assert spec.cell_count == 2 + 2 + 1

    def test_not_an_object(self):
        with pytest.raises(ExperimentSpecError, match="JSON object"):
            parse_spec([1, 2, 3])

    def test_unknown_top_level_field(self):
        with pytest.raises(ExperimentSpecError, match="unknown fields"):
            parse_spec(tiny_spec_data(bogus=1))

    def test_missing_name(self):
        data = tiny_spec_data()
        del data["name"]
        with pytest.raises(ExperimentSpecError, match="'name'"):
            parse_spec(data)

    def test_empty_sweeps(self):
        with pytest.raises(ExperimentSpecError, match="'sweeps'"):
            parse_spec(tiny_spec_data(sweeps=[]))

    def test_unknown_kind(self):
        data = tiny_spec_data()
        data["sweeps"][0]["kind"] = "warp"
        with pytest.raises(ExperimentSpecError, match="kind"):
            parse_spec(data)

    def test_unknown_axis_for_kind(self):
        data = tiny_spec_data()
        # shards is a chaos axis, not a t2a axis.
        data["sweeps"][0]["axes"]["shards"] = [1, 2]
        with pytest.raises(ExperimentSpecError, match="unknown axes"):
            parse_spec(data)

    def test_removed_poll_dispatch_axis_is_unknown(self):
        data = tiny_spec_data()
        data["sweeps"][1]["axes"]["poll_dispatch"] = ["heap", "timers"]
        with pytest.raises(ExperimentSpecError, match=r"unknown axes \['poll_dispatch'\]"):
            parse_spec(data)

    def test_misspelt_variant_knob(self):
        data = tiny_spec_data()
        data["sweeps"][0]["knobs"]["variant"] = "oficial"
        with pytest.raises(ExperimentSpecError, match="applet A5 has no 'oficial' variant"):
            parse_spec(data)

    def test_variant_missing_from_a_swept_applet(self):
        data = tiny_spec_data()
        data["sweeps"][0]["axes"]["applet"] = ["A2", "A5"]
        data["sweeps"][0]["knobs"]["variant"] = "e1"
        with pytest.raises(
            ExperimentSpecError,
            match=r"'t2a': applet A5 has no 'e1' variant; "
            r"valid variants are \['hosted_alexa', 'official'\]",
        ):
            parse_spec(data)

    def test_axis_value_out_of_domain(self):
        data = tiny_spec_data()
        data["sweeps"][0]["axes"]["applet"] = ["A99"]
        with pytest.raises(ExperimentSpecError, match="A99"):
            parse_spec(data)

    def test_duplicate_axis_values(self):
        data = tiny_spec_data()
        data["sweeps"][1]["axes"]["delivery_mode"] = ["poll", "poll"]
        with pytest.raises(ExperimentSpecError, match="duplicate"):
            parse_spec(data)

    def test_undefined_fault_plan(self):
        data = tiny_spec_data()
        data["sweeps"][0]["axes"]["fault_plan"] = ["baseline", "nope"]
        with pytest.raises(ExperimentSpecError, match="nope"):
            parse_spec(data)

    def test_reserved_plan_name(self):
        data = tiny_spec_data()
        data["fault_plans"]["baseline"] = {"faults": []}
        with pytest.raises(ExperimentSpecError, match="reserved"):
            parse_spec(data)

    def test_invalid_fault_plan_body(self):
        data = tiny_spec_data()
        data["fault_plans"]["plan_a"] = {"faults": [{"kind": "meteor_strike"}]}
        with pytest.raises(ExperimentSpecError, match="plan_a"):
            parse_spec(data)

    def test_bad_repeats(self):
        data = tiny_spec_data()
        data["sweeps"][0]["repeats"] = 0
        with pytest.raises(ExperimentSpecError, match="repeats"):
            parse_spec(data)

    def test_unknown_knob(self):
        data = tiny_spec_data()
        data["sweeps"][0]["knobs"]["warp_factor"] = 9
        with pytest.raises(ExperimentSpecError, match="unknown knobs"):
            parse_spec(data)

    def test_duplicate_sweep_names(self):
        data = tiny_spec_data()
        data["sweeps"][1]["name"] = "t2a"
        with pytest.raises(ExperimentSpecError, match="duplicate sweep names"):
            parse_spec(data)

    def test_cell_limit(self):
        data = tiny_spec_data()
        data["sweeps"] = [
            {
                "name": "big",
                "kind": "fleet",
                "axes": {"corpus_size": list(range(1, 5001))},
            }
        ]
        with pytest.raises(ExperimentSpecError, match="limit"):
            parse_spec(data)

    @pytest.mark.parametrize("sweep, knob, value, rule", [
        (1, "poll_interval", float("nan"), "finite"),
        (1, "poll_interval", -5.0, "> 0"),
        (1, "drain", float("inf"), "finite"),
        (1, "drain", -10.0, ">= 0"),
        (0, "runs", -3, ">= 1"),
        (0, "runs", 0, ">= 1"),
        (0, "spacing", float("nan"), "finite"),
        (0, "timeout", 0.0, "> 0"),
        (2, "publications", -2, ">= 1"),
        (2, "publications", 0, ">= 1"),
    ])
    def test_knob_out_of_range(self, sweep, knob, value, rule):
        # Each of these once ran: a NaN spacing or an infinite drain hung
        # the cell, runs=-3 was recorded as a valid empty result, a NaN
        # poll interval failed mid-run.
        data = tiny_spec_data()
        data["sweeps"][sweep]["knobs"][knob] = value
        name = data["sweeps"][sweep]["name"]
        with pytest.raises(
            ExperimentSpecError, match=rf"sweep '{name}': knob '{knob}' must be {rule}, got"
        ):
            parse_spec(data)


# -- expansion + seeds -----------------------------------------------------------------


class TestExpansion:
    def test_cell_count_is_product_summed_across_sweeps(self):
        spec = parse_spec(tiny_spec_data())
        cells = expand_cells(spec)
        assert len(cells) == spec.cell_count == 5
        assert [c.index for c in cells] == list(range(5))

    def test_omitted_axes_get_defaults(self):
        spec = parse_spec(tiny_spec_data())
        chaos = [c for c in expand_cells(spec) if c.sweep.name == "chaos"]
        assert all(c.params["shards"] == 1 for c in chaos)
        assert all("poll_dispatch" not in c.params for c in chaos)

    def test_committed_specs_parse(self):
        smoke = load_spec(SMOKE_SPEC)
        full = load_spec(FULL_SPEC)
        assert smoke.cell_count == 10
        assert full.cell_count == 32
        # The full matrix must sweep the whole applet suite against a
        # fault plan alongside the Figure 4 baseline (the ISSUE-9 slice).
        t2a = [c for c in expand_cells(full) if c.sweep.kind == "t2a"]
        applets = {c.params["applet"] for c in t2a}
        plans = {c.params["fault_plan"] for c in t2a}
        assert applets == {f"A{i}" for i in range(1, 8)}
        assert plans == {"baseline", "service_faults"}

    def test_seed_depends_on_spec_content(self):
        a = parse_spec(tiny_spec_data())
        b = parse_spec(tiny_spec_data(description="edited"))
        assert spec_sha256(tiny_spec_data()) == a.sha256
        assert a.sha256 != b.sha256
        assert cell_seed(a, 0) != cell_seed(b, 0)

    def test_seed_distinct_per_cell_and_repeat(self):
        spec = parse_spec(tiny_spec_data())
        seeds = {cell_seed(spec, i, r) for i in range(5) for r in range(3)}
        assert len(seeds) == 15


# -- statistics ------------------------------------------------------------------------


class TestStats:
    def test_t_critical_tabulated_and_limit(self):
        assert t_critical(1, 0.95) == pytest.approx(12.706)
        assert t_critical(10, 0.95) == pytest.approx(2.228)
        assert t_critical(1000, 0.95) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical(0)
        with pytest.raises(ValueError):
            t_critical(5, 0.42)

    def test_mean_interval(self):
        assert mean_confidence_interval([1.0]) is None
        mean, lo, hi = mean_confidence_interval([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert lo < mean < hi
        # Zero variance collapses to a zero-width interval.
        mean, lo, hi = mean_confidence_interval([5.0, 5.0, 5.0])
        assert lo == hi == mean == pytest.approx(5.0)

    def test_bootstrap_interval_deterministic(self):
        samples = [float(v) for v in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)]
        a = bootstrap_median_interval(samples, seed=11)
        b = bootstrap_median_interval(samples, seed=11)
        c = bootstrap_median_interval(samples, seed=12)
        assert a == b
        assert a != c
        center, lo, hi = a
        assert lo <= center <= hi

    def test_pooled_quartiles_small_sample_exact(self):
        assert pooled_quartiles([]) is None
        p25, p50, p75 = pooled_quartiles([1.0, 2.0, 3.0])
        assert p50 == pytest.approx(2.0)
        assert p25 <= p50 <= p75


# -- seed stability / determinism ------------------------------------------------------


class TestSeedStability:
    def test_same_cell_twice_is_identical(self):
        spec = parse_spec(tiny_spec_data())
        first = run_cell(spec, 0)
        second = run_cell(spec, 0)
        assert first.to_dict() == second.to_dict()
        # Snapshots too, not just the summaries.
        assert [r.snapshot for r in first.repeats] == [
            r.snapshot for r in second.repeats
        ]

    def test_repeats_vary_within_a_cell(self):
        spec = parse_spec(tiny_spec_data())
        result = run_cell(spec, 0)
        assert result.repeats[0].seed != result.repeats[1].seed
        assert result.repeats[0].samples != result.repeats[1].samples

    def test_fault_plan_slice_differs_from_baseline(self):
        spec = parse_spec(tiny_spec_data())
        cells = expand_cells(spec)
        baseline = next(
            c.index for c in cells if c.params.get("fault_plan") == "baseline"
        )
        faulted = next(
            c.index for c in cells if c.params.get("fault_plan") == "plan_a"
        )
        a = run_cell(spec, baseline)
        b = run_cell(spec, faulted)
        assert a.to_dict()["params"]["fault_plan"] == "baseline"
        assert b.to_dict()["params"]["fault_plan"] == "plan_a"

    def test_cell_index_out_of_range(self):
        spec = parse_spec(tiny_spec_data())
        with pytest.raises(IndexError):
            run_cell(spec, 99)


# -- jobs / isolation equivalence ------------------------------------------------------


class TestMatrixEquivalence:
    def _write_spec(self, tmp_path, data):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_serial_in_process_equals_parallel_subprocess(self, tmp_path):
        data = tiny_spec_data()
        spec_path = self._write_spec(tmp_path, data)
        spec = load_spec(spec_path)

        serial = run_matrix(
            spec, spec_path, str(tmp_path / "serial"), isolate=False
        )
        parallel = run_matrix(
            spec, spec_path, str(tmp_path / "parallel"), jobs=4, isolate=True
        )
        assert serial.to_json() == parallel.to_json()
        # The gate diffs bytes on disk; mirror that here.
        a = (tmp_path / "serial" / "results.json").read_bytes()
        b = (tmp_path / "parallel" / "results.json").read_bytes()
        assert a == b
        for index in range(spec.cell_count):
            name = f"cell_{index:04d}.json"
            assert (tmp_path / "serial" / "cells" / name).read_bytes() == (
                tmp_path / "parallel" / "cells" / name
            ).read_bytes()

    def test_matrix_results_shape(self, tmp_path):
        data = tiny_spec_data()
        spec_path = self._write_spec(tmp_path, data)
        spec = load_spec(spec_path)
        results = run_matrix(spec, spec_path, str(tmp_path / "out"), isolate=False)
        payload = results.to_dict()
        assert payload["cell_count"] == spec.cell_count
        assert payload["spec_sha256"] == spec.sha256
        for cell in payload["cells"]:
            assert cell["n"] > 0
            p25, p50, p75 = cell["t2a_quartiles"]
            assert p25 <= p50 <= p75
            ci = cell["median_ci"]
            assert ci["lo"] <= ci["center"] <= ci["hi"]
            assert "snapshots" not in cell


# -- reporting -------------------------------------------------------------------------


class TestReporting:
    def _results(self, tmp_path):
        data = tiny_spec_data()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        spec = load_spec(str(spec_path))
        return run_matrix(spec, str(spec_path), str(tmp_path / "out"), isolate=False)

    def test_render_table(self, tmp_path):
        results = self._results(tmp_path)
        text = render_experiment_table(results.to_dict())
        assert "experiment matrix 'tiny'" in text
        for sweep in ("t2a", "chaos", "fleet"):
            assert sweep in text


# -- CLI round trip --------------------------------------------------------------------


class TestCli:
    def test_list(self, tmp_path, capsys):
        assert cli_main(["experiments", SMOKE_SPEC, "--list"]) == 0
        out = capsys.readouterr().out
        assert "10 cells" in out
        assert "t2a_smoke" in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "sweeps": []}))
        assert cli_main(["experiments", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_knob_exits_2(self, tmp_path, capsys):
        data = tiny_spec_data()
        data["sweeps"][1]["knobs"]["drain"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # "drain": Infinity
        assert cli_main(["experiments", str(bad), "--list"]) == 2
        assert "sweep 'chaos': knob 'drain' must be finite" in capsys.readouterr().err

    def test_single_cell_then_full_run_round_trip(self, tmp_path, capsys):
        data = tiny_spec_data()
        # Shrink to one fast sweep for the CLI path.
        data["sweeps"] = [data["sweeps"][2]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))

        out_a = tmp_path / "by-cell"
        assert cli_main([
            "experiments", str(spec_path), "--cell", "0", "--output", str(out_a)
        ]) == 0
        cell_file = out_a / "cells" / "cell_0000.json"
        assert cell_file.exists()

        out_b = tmp_path / "whole"
        assert cli_main([
            "experiments", str(spec_path), "--in-process", "--quiet",
            "--output", str(out_b),
        ]) == 0
        capsys.readouterr()
        # The --cell artifact is byte-identical to the orchestrated one.
        whole_cell = out_b / "cells" / "cell_0000.json"
        assert cell_file.read_bytes() == whole_cell.read_bytes()
        results = json.loads((out_b / "results.json").read_text())
        assert results["spec_name"] == "tiny"
        assert results["cell_count"] == 1

    def test_cell_out_of_range_exits_2(self, tmp_path, capsys):
        data = tiny_spec_data()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert cli_main([
            "experiments", str(spec_path), "--cell", "99",
            "--output", str(tmp_path / "o"),
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_subprocess_entry_point(self, tmp_path):
        """`python -m repro experiments` works as the orchestrator invokes it."""
        data = tiny_spec_data()
        data["sweeps"] = [data["sweeps"][2]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        src = os.path.join(REPO, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", str(spec_path),
             "--cell", "0", "--output", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "cells" / "cell_0000.json").exists()


def test_spec_sha_insensitive_to_key_order():
    data = tiny_spec_data()
    shuffled = dict(reversed(list(copy.deepcopy(data).items())))
    assert spec_sha256(data) == spec_sha256(shuffled)
