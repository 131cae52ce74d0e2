"""Self-tests of the ledger (not collected by tier-1's ``testpaths = tests``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (the
``benchmarks/conftest.py`` above this directory imports ``repro``).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import checks  # noqa: E402
import compare  # noqa: E402
import spec  # noqa: E402
from tracer import EntryPoint, Tracer, corrected_self_ns  # noqa: E402

RUN = os.path.join(LEDGER_DIR, "run.py")


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=170
    )


# -- span stack -------------------------------------------------------------------

class Outer:
    def work(self, inner: "Inner") -> None:
        time.sleep(0.002)
        inner.work()
        inner.work()

    def fail(self, inner: "Inner") -> None:
        inner.fail()


class Inner:
    def work(self) -> None:
        time.sleep(0.001)

    def fail(self) -> None:
        raise KeyError("boom")


POINTS = (
    EntryPoint(Outer, "work", "engine"),
    EntryPoint(Outer, "fail", "engine"),
    EntryPoint(Inner, "work", "obs"),
    EntryPoint(Inner, "fail", "obs"),
)


def make_tracer() -> Tracer:
    return Tracer(("engine", "obs"), lambda module: None)


def test_nested_self_time_sums_to_root_duration():
    tracer = make_tracer()
    tracer.install(POINTS)
    try:
        started = time.perf_counter_ns()
        with tracer.phase("run"):
            Outer().work(Inner())
        elapsed = time.perf_counter_ns() - started
    finally:
        tracer.uninstall()
    layers = tracer.phases["run"]["layers"]
    own = sum(entry["self_ns"] for entry in layers.values())
    # every nanosecond of the phase is some span's self time, exactly once
    phase_span = [s for s in tracer.sample if s[2] == "phase:run"][0]
    assert own == phase_span[5] - phase_span[4] <= elapsed
    assert layers["engine"]["self_ns"] >= 2_000_000
    assert layers["obs"]["self_ns"] >= 2_000_000
    assert layers["obs"]["calls_in"] == 2 and layers["engine"]["calls_in"] == 1
    assert layers["engine"]["child_spans"] == 2
    edge = [e for e in tracer.phases["run"]["edges"] if e["layer"] == "obs"][0]
    assert edge["parent"] == "engine" and edge["calls"] == 2
    # parents in the raw sample point at the enclosing span
    by_id = {span[0]: span for span in tracer.sample}
    inner_spans = [span for span in tracer.sample if span[2] == "Inner.work"]
    assert {by_id[span[1]][2] for span in inner_spans} == {"Outer.work"}


def test_exception_still_closes_the_span():
    tracer = make_tracer()
    tracer.install(POINTS)
    try:
        with tracer.phase("run"):
            with pytest.raises(KeyError):
                Outer().fail(Inner())
            Outer().work(Inner())  # the stack is balanced again
    finally:
        tracer.uninstall()
    layers = tracer.phases["run"]["layers"]
    assert layers["obs"]["spans"] == 3 and layers["engine"]["spans"] == 2
    assert len(tracer._states[0].stack) == 1


def test_wrappers_are_removed_after_the_run():
    originals = {(p.owner, p.attr): p.owner.__dict__[p.attr] for p in POINTS}
    tracer = make_tracer()
    tracer.install(POINTS)
    assert all(p.owner.__dict__[p.attr] is not originals[p.owner, p.attr] for p in POINTS)
    tracer.uninstall()
    assert all(p.owner.__dict__[p.attr] is originals[p.owner, p.attr] for p in POINTS)
    tracer.uninstall()  # idempotent


def test_private_entry_points_are_refused():
    with pytest.raises(ValueError):
        make_tracer().install([EntryPoint(Tracer, "_state", "engine")])


def test_callbacks_are_charged_to_their_defining_module():
    tracer = Tracer(("engine", "obs"), lambda module: "obs" if module == __name__ else None)
    wrapped = tracer.wrap_callable(Inner().work)
    with tracer.phase("run"):
        wrapped()
    assert tracer.phases["run"]["layers"]["obs"]["spans"] == 1


def test_correction_subtracts_wrapper_cost():
    entry = {"self_ns": 1000, "spans": 2, "child_spans": 3}
    assert corrected_self_ns(entry, {"inside_ns": 100, "outside_ns": 200}) == 200
    assert corrected_self_ns(entry, {"inside_ns": 900, "outside_ns": 0}) == 0


# -- names: BENCHMARK.json, spec, adapters ----------------------------------------

def test_benchmark_json_names_what_run_py_emits():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["paths"] == ["benchmarks/ledger"]
    assert benchmark["command"][-1] == "benchmarks/ledger/run.py"
    assert [w["name"] for w in benchmark["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in benchmark["workloads"]] == list(spec.WORKLOADS.values())
    by_name = {metric.name: metric for metric in spec.END_TO_END}
    assert [m["name"] for m in benchmark["end_to_end"]] == list(spec.DRIVER_END_TO_END)
    for listed in benchmark["end_to_end"]:
        metric = by_name[listed["name"]]
        assert (listed["unit"], listed["better"], listed["bound"]) == (
            metric.unit, metric.better, metric.bound,
        )
        assert metric.workloads is None and 0 < metric.bound <= 0.25
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == spec.per_layer_metrics()
    assert {m["name"] for m in benchmark["per_layer"] if m["better"] == "higher"} == set(
        spec.PER_LAYER_HIGHER_IS_BETTER
    )
    assert len(benchmark["per_layer"]) <= 128


def test_adapters_cover_every_workload_with_public_entry_points():
    import adapters

    assert list(adapters.WORKLOADS) == list(spec.WORKLOADS) == list(spec.NOMINAL_SIZES)
    for point in adapters.ENTRY_POINTS:
        assert not point.attr.startswith("_")
        assert point.attr in point.owner.__dict__, f"{point.owner.__name__}.{point.attr}"
        assert point.layer in spec.LAYERS
    assert {point.layer for point in adapters.ENTRY_POINTS} == set(spec.LAYERS)


# -- the command ------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    output = tmp_path_factory.mktemp("ledger") / "quick.json"
    proc = ledger("--quick", "--output", str(output))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(output) as handle:
        report = json.load(handle)
    return {"path": str(output), "report": report, "stdout": proc.stdout}


def test_quick_mode_exercises_every_workload_and_the_traced_pass(quick_report):
    report, stdout = quick_report["report"], quick_report["stdout"]
    assert sorted(report["workloads"]) == sorted(spec.WORKLOADS)
    assert {"nproc", "cpu_model", "python", "platform", "loadavg_start", "loadavg_end"} <= set(
        report["hardware"]
    )
    for name, entry in report["workloads"].items():
        assert entry["correct"] and not entry["failures"]
        assert entry["repeats"] == 1
        for metric, unit in spec.per_layer_metrics():
            assert entry["per_layer"][metric]["unit"] == unit
            assert f"{name} {metric} " in stdout
        for metric in spec.END_TO_END:
            defined = metric.workloads is None or name in metric.workloads
            assert (metric.name in entry["end_to_end"]) == defined
        assert entry["per_layer"]["trace.unattributed_pct"]["value"] <= 10
    layers = report["workloads"]
    assert layers["fanout_observed"]["per_layer"]["obs.share_pct"]["value"] >= 20
    assert layers["fleet_poll"]["per_layer"]["obs.share_pct"]["value"] == 0
    assert layers["fleet_sharded"]["per_layer"]["simcore.parallel.epochs"]["value"] == 1
    assert layers["chaos_storm"]["per_layer"]["simcore.parallel.epochs"]["value"] > 6000
    assert layers["chaos_storm"]["end_to_end"]["failed_ops_pct"]["median"] > 0
    with open(quick_report["path"][:-5] + ".trace.json") as handle:
        traces = json.load(handle)
    for trace in traces.values():
        assert 0 < len(trace["sample"]["spans"]) <= 10_000
        assert trace["sample"]["columns"] == ["id", "parent", "name", "start_ns", "duration_ns"]
        assert {"setup", "run"} == set(trace["phases"])
        # the sample shows the workload, not the tracer's calibration loop
        names = [name for name, _ in trace["sample"]["names"]]
        assert {"phase:setup", "phase:run"} <= set(names)
        assert any(name.startswith("event:") for name in names)
        assert "calibrate" not in names


def test_compare_accepts_itself_and_names_what_got_worse(quick_report, tmp_path, capsys):
    path = quick_report["path"]
    assert ledger("--compare", path, path).returncode == 0

    slower = copy.deepcopy(quick_report["report"])
    stats = slower["workloads"]["fanout_push"]["end_to_end"]["run_s"]
    for key in ("median", "min", "max"):
        stats[key] *= 2
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    proc = ledger("--compare", path, str(slower_path))
    assert proc.returncode != 0
    assert "COMPARE FAILED: fanout_push run_s" in proc.stdout

    drifted = copy.deepcopy(quick_report["report"])
    drifted["workloads"]["chaos_storm"]["sim_fingerprint"] = "0" * 64
    drifted["workloads"]["chaos_storm"]["per_layer"]["engine.polls_sent"]["value"] += 1
    failures = compare.compare_reports(quick_report["report"], drifted)
    capsys.readouterr()
    assert any("chaos_storm sim_fingerprint" in f for f in failures)
    assert any("chaos_storm engine.polls_sent" in f for f in failures)


def test_compare_says_unresolved_when_the_spread_exceeds_the_bound():
    metric = next(m for m in spec.END_TO_END if m.name == "run_s")
    steady = {"median": 1.0, "min": 0.99, "max": 1.01}
    noisy = {"median": 1.05, "min": 0.8, "max": 1.3}
    assert compare._timing_verdict(metric, steady, steady) == "unchanged"
    assert compare._timing_verdict(metric, steady, noisy) == "unresolved"
    assert compare._timing_verdict(metric, steady, {"median": 2, "min": 2, "max": 2}) == "REGRESSED"
    faster = {"median": 0.5, "min": 0.5, "max": 0.5}
    assert compare._timing_verdict(metric, steady, faster) == "improved"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_pipeline_contract_line(trace):
    proc = ledger(
        "--workload", "chaos_storm", "--seed", "11", "--seconds", "0", "--repeats", "1",
        "--scale", str(spec.QUICK_SCALE), "--trace", trace,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    expected = (
        dict(spec.per_layer_metrics()) if trace == "1"
        else {m.name: m.unit for m in spec.END_TO_END if m.name in spec.DRIVER_END_TO_END}
    )
    assert {name: cell["unit"] for name, cell in line["metrics"].items()} == expected
    if trace == "0":
        assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_failed_checks_are_reported():
    repeat = {
        "size": 10,
        "sim_fingerprint": "a",
        "end_to_end": {"setup_s": 1, "run_s": 1, "ops_per_s": 1, "peak_rss_mb": 1,
                       "ok_ops_pct": 100.0, "failed_ops_pct": 0.0},
        "counts": {"engine.conservation_residual": 0},
        "facts": {"applets": 10, "polls_sent_total": 12, "actions_executed": 0,
                  "actions_dispatched_total": 0, "shard_residuals": [0]},
    }
    assert checks.check_workload("fleet_poll", [repeat, repeat]) == []
    broken = copy.deepcopy(repeat)
    broken["sim_fingerprint"] = "b"
    broken["facts"]["shard_residuals"] = [1]
    broken["facts"]["polls_sent_total"] = 3
    failures = checks.check_workload("fleet_poll", [repeat, broken])
    assert len(failures) == 3
    assert any("sim_fingerprints" in failure for failure in failures)


def test_lint_clean():
    lint = os.path.join(REPO_ROOT, "tools", "lint.py")
    proc = subprocess.run(
        [sys.executable, lint, LEDGER_DIR], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout
