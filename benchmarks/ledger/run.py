#!/usr/bin/env python3
"""The layered performance ledger: one command, five workloads.

Runs each workload in a fresh subprocess per repeat, one subprocess at a
time (``ru_maxrss`` and GC state cannot bleed between repeats, and the
harness never contends for the sandbox's two cores), prints every metric
as ``workload metric value unit``, checks correctness and optionally
writes a JSON report.  See README.md for what each name means.

Usage::

    python benchmarks/ledger/run.py                       # all five, untraced
    python benchmarks/ledger/run.py --workload fleet_poll --seed 11
    python benchmarks/ledger/run.py --traced --output BENCH_layers.json
    python benchmarks/ledger/run.py --probes              # layer-ladder probes
    python benchmarks/ledger/run.py --quick               # 1/5 sizes, 1 repeat, traced
    python benchmarks/ledger/run.py --compare A.json B.json

The pipeline calls it as ``--workload NAME --seed N --seconds S --trace
0|1``; with exactly one workload the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

# Taken before the heavy imports: a child's set-up time includes them, so
# work moved from world construction into import time still shows.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import checks  # noqa: E402
import compare  # noqa: E402
import spec  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_REPEATS = 3
#: Measured seconds (set-up + timed phase, summed over repeats) to spend
#: per workload before stopping; ``BENCHMARK.json``'s ``run_seconds``.
DEFAULT_SECONDS = 15
MAX_REPEATS = 12
#: A child that has not finished by now is stuck; the pipeline allows 180 s
#: for the whole command.
CHILD_TIMEOUT_S = 150


def run_child(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Re-exec this script to run one repeat in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(payload)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {payload} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def child_main(payload: Dict[str, Any]) -> int:
    if payload.get("probes"):
        import probes

        result = probes.run_probes(payload["seed"], payload["scale"])
    else:
        import measure

        result = measure.measure(
            payload["workload"], payload["seed"], payload["scale"], _STARTED,
            payload.get("untraced_run_s"),
        )
    print(json.dumps(result))
    return 0


def hardware() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "unit": unit,
    }


def measure_workload(
    name: str, seed: int, scale: float, seconds: float, min_repeats: int, traced: bool
) -> Dict[str, Any]:
    """Repeat one workload until ``seconds`` are measured; summarise; check."""
    payload = {"workload": name, "seed": seed, "scale": scale}
    repeats: List[Dict[str, Any]] = []
    measured = 0.0
    while len(repeats) < MAX_REPEATS and (
        len(repeats) < min_repeats or measured < seconds
    ):
        repeat = run_child(payload)
        measured += repeat["wall"]["setup_wall_s"] + repeat["wall"]["run_wall_s"]
        repeats.append(repeat)

    end_to_end = {
        metric.name: _summary([r["end_to_end"][metric.name] for r in repeats], metric.unit)
        for metric in spec.END_TO_END
        if metric.name in repeats[0]["end_to_end"]
    }
    per_layer = {
        metric: {"value": statistics.median(r["counts"][metric] for r in repeats), "unit": unit}
        for metric, unit in spec.COUNT_METRICS
    }
    units = dict(spec.per_layer_metrics())
    for metric in spec.MODEL_METRICS:
        value = end_to_end[metric]["median"] if metric in end_to_end else 0.0
        per_layer[f"model.{metric}"] = {"value": value, "unit": units[f"model.{metric}"]}
    entry = {
        "size": repeats[0]["size"],
        "seed": seed,
        "repeats": len(repeats),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "import_s": _summary([r["import_s"] for r in repeats], "s"),
        "wall": {
            metric: _summary([r["wall"][metric] for r in repeats], unit)
            for metric, unit in spec.WALL_METRICS
        },
        "ops_attempted": repeats[0]["ops_attempted"],
        "ops_failed": repeats[0]["ops_failed"],
        "ops_lost": int(per_layer["engine.conservation_residual"]["value"]),
        "sim_fingerprint": repeats[0]["sim_fingerprint"],
    }
    traced_run = None
    if traced:
        # The traced child needs the untraced median to know what being
        # watched cost it.
        traced_run = run_child(
            {**payload, "untraced_run_s": end_to_end["run_s"]["median"]}
        )
        entry["trace"] = traced_run["trace"]
        for metric, value in entry["trace"]["metrics"].items():
            per_layer[metric] = {"value": value, "unit": units[metric]}
    entry["failures"] = checks.check_workload(name, repeats, traced_run)
    entry["correct"] = not entry["failures"]
    return entry


def print_entry(name: str, entry: Dict[str, Any]) -> None:
    for metric, stats in {**entry["end_to_end"], **entry["wall"]}.items():
        print(
            f"{name} {metric} {stats['median']:.6g} {stats['unit']} "
            f"min={stats['min']:.6g} max={stats['max']:.6g} n={stats['n']}"
        )
    for metric, cell in entry["per_layer"].items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    print(f"{name} ops_attempted {entry['ops_attempted']} count")
    print(f"{name} ops_failed {entry['ops_failed']} count")
    print(f"{name} sim_fingerprint {entry['sim_fingerprint']} sha256")
    for failure in entry["failures"]:
        print(f"{name} CHECK FAILED: {failure}")


def driver_line(entry: Dict[str, Any], traced: bool) -> str:
    """The one JSON object the pipeline reads from the last stdout line.

    ``attempted`` counts the protocol exchanges the simulator carried out
    in the timed phase; ``failed`` those it lost track of.  Failures the
    fault plan *simulates* are the model's output, reported as
    ``ok_ops_pct`` / ``model.failed_ops_pct``.
    """
    if traced:
        metrics = {
            name: {"value": entry["per_layer"][name]["value"], "unit": unit}
            for name, unit in spec.per_layer_metrics()
        }
    else:
        metrics = {
            name: {
                "value": entry["end_to_end"][name]["median"],
                "unit": entry["end_to_end"][name]["unit"],
            }
            for name in spec.DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": entry["correct"],
        "attempted": max(1, entry["ops_attempted"]),
        "failed": entry["ops_lost"],
        "metrics": metrics,
    })


def write_report(report: Dict[str, Any], output: str) -> None:
    """The JSON report, and the traced pass beside it as ``*.trace.json``."""
    traces = {
        name: entry.pop("trace")
        for name, entry in report["workloads"].items() if "trace" in entry
    }
    with open(output, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if traces:
        stem = output[:-5] if output.endswith(".json") else output
        with open(stem + ".trace.json", "w") as handle:
            json.dump(traces, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(spec.WORKLOADS),
        help="run only this workload (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="keep repeating a workload until this many seconds are measured",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="repeats per workload at the least",
    )
    parser.add_argument(
        "--scale", type=float, default=spec.DEFAULT_SCALE,
        help="sizes as a share of the nominal 100K/10K/40K/100K applets, 100 pairs",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1: add the traced pass")
    parser.add_argument("--probes", action="store_true",
                        help="run the layer-ladder probes instead of the workloads")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small sizes, one repeat, traced")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two reports; non-zero if B is worse than A")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.scale, args.repeats, args.seconds, args.trace = spec.QUICK_SCALE, 1, 0.0, 1
    if args.repeats < 1 or args.scale <= 0 or args.seconds < 0:
        parser.error("--repeats, --scale must be positive and --seconds not negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if args.compare:
        return compare.main(*args.compare)

    report: Dict[str, Any] = {
        "benchmark": "ledger",
        "seed": args.seed,
        "scale": args.scale,
        "hardware": hardware(),
        "workloads": {},
    }
    ok = True
    if args.probes:
        report["probes"] = run_child({"probes": True, "seed": args.seed, "scale": args.scale})
        for name, cell in report["probes"].items():
            print(
                f"probes {name} {cell['median']:.6g} {cell['unit']} "
                f"iqr={cell['iqr']:.3g} n={cell['n']}"
            )
    else:
        for name in args.workload or list(spec.WORKLOADS):
            entry = measure_workload(
                name, args.seed, args.scale, args.seconds, args.repeats, bool(args.trace)
            )
            report["workloads"][name] = entry
            print_entry(name, entry)
            ok = ok and entry["correct"]
    report["hardware"]["loadavg_end"] = list(os.getloadavg())
    last_line = None
    if len(report["workloads"]) == 1:
        (entry,) = report["workloads"].values()
        last_line = driver_line(entry, bool(args.trace))
    if args.output:
        write_report(report, args.output)
    if last_line is not None:
        print(last_line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
