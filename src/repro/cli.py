"""Command-line interface: rerun the paper's measurements from a shell.

Examples::

    python -m repro ecosystem --scale 0.05
    python -m repro t2a --applet A2 --runs 20
    python -m repro t2a --applet A2 --scenario E3 --runs 10
    python -m repro timeline
    python -m repro loops --kind implicit --runtime-detection
    python -m repro fleet --applets 150 --delivery hint
    python -m repro chaos --scenario outage --snapshot chaos.jsonl
    python -m repro chaos --scenario partition --faults plan.json
    python -m repro chaos --scenario outage --shards 4 --snapshot fleet.jsonl
    python -m repro chaos --scenario outage --replay --snapshot replay.jsonl
    python -m repro chaos --scenario brownout --adaptive
    python -m repro chaos --scenario outage --delivery push --shards 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__

#: ``--delivery`` choices (``repro.engine.push.DELIVERY_MODES``, spelled out
#: so building the parser imports no engine code).
_DELIVERY_CHOICES = ("poll", "hint", "push")


def _cmd_ecosystem(args: argparse.Namespace) -> int:
    from repro.analysis import growth_percentages, iot_shares, table1, user_contribution_stats
    from repro.crawler import IftttCrawler, SnapshotStore
    from repro.ecosystem import EcosystemGenerator, EcosystemParams
    from repro.frontend import SimulatedIftttSite
    from repro.reporting import render_table

    corpus = EcosystemGenerator(EcosystemParams(scale=args.scale, seed=args.seed)).generate()
    site = SimulatedIftttSite(corpus)
    crawler = IftttCrawler(site)
    store = SnapshotStore()
    for week in (0, 12, 24):
        store.add(crawler.crawl(week=week))
    final = store.last()
    print(f"snapshot {final.date}: {final.summary()}")
    print()
    print(render_table(
        ["#", "Category", "%Svc", "Trig AC%", "Act AC%"],
        [[r.category_index, r.category_name[:38], r.pct_services,
          r.trigger_ac_pct, r.action_ac_pct] for r in table1(final)],
    ))
    shares = iot_shares(final)
    contrib = user_contribution_stats(final)
    print(f"\nIoT: {shares.iot_service_fraction:.1%} of services, "
          f"{shares.iot_add_fraction:.1%} of usage")
    print(f"user channels: {contrib.user_channels}; user-made applets: "
          f"{contrib.user_made_applet_fraction:.1%} ({contrib.user_made_add_fraction:.1%} of adds)")
    growth = growth_percentages(store)
    print("growth:", ", ".join(f"{k} {v:+.1f}%" for k, v in growth.items()))
    if args.save:
        store.save(args.save)
        print(f"snapshots saved to {args.save}")
    return 0


def _emit_metrics(source, path: str) -> None:
    """Print a metrics summary and write the JSON-lines report."""
    from repro.reporting import render_metrics_summary, write_metrics_json

    print()
    print(render_metrics_summary(source))
    written = write_metrics_json(source, path)
    print(f"metrics written to {written}")


def _cmd_t2a(args: argparse.Namespace) -> int:
    from repro.reporting import summarize_latencies
    from repro.testbed.applets import variant_error
    from repro.testbed.scenarios import SCENARIOS, build_scenario

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; choose from {sorted(SCENARIOS)}",
              file=sys.stderr)
        return 2
    if variant_error(args.applet, SCENARIOS[args.scenario].applet_variant):
        supported = [name for name, known in SCENARIOS.items()
                     if not variant_error(args.applet, known.applet_variant)]
        print(f"applet {args.applet} does not run under scenario {args.scenario}; "
              f"its scenarios are {supported}", file=sys.stderr)
        return 2
    testbed, controller, chosen = build_scenario(args.scenario, seed=args.seed)
    latencies = controller.measure_t2a(
        args.applet, runs=args.runs, variant=chosen.applet_variant,
        spacing=20.0 if chosen.fast_engine else 150.0,
    )
    stats = summarize_latencies(latencies)
    print(f"{args.applet} under {args.scenario} ({chosen.description})")
    print(f"  n={int(stats['n'])} p25={stats['p25']:.2f}s p50={stats['p50']:.2f}s "
          f"p75={stats['p75']:.2f}s max={stats['max']:.2f}s")
    if args.metrics:
        _emit_metrics(testbed.metrics, args.metrics)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.testbed.timeline import capture_timeline, format_timeline

    print(format_timeline(capture_timeline(seed=args.seed)))
    return 0


def _cmd_loops(args: argparse.Namespace) -> int:
    from repro.testbed.loops import (
        run_explicit_loop_experiment,
        run_implicit_loop_experiment,
    )

    runner = (run_explicit_loop_experiment if args.kind == "explicit"
              else run_implicit_loop_experiment)
    result = runner(duration=args.duration, seed=args.seed,
                    runtime_detection=args.runtime_detection)
    print(f"{args.kind} loop over {args.duration/60:.0f} simulated minutes:")
    print(f"  rows added: {result.rows_added}, emails: {result.emails_received}, "
          f"self-sustained: {result.looped}")
    print(f"  static analysis (blind): {len(result.static_findings)} cycle(s); "
          f"with external knowledge: {len(result.static_findings_with_external_knowledge)}")
    if args.runtime_detection:
        print(f"  runtime detector flagged: {result.runtime_flagged}, "
              f"disabled: {result.disabled_applets}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.testbed.workload import run_fleet_experiment

    result = run_fleet_experiment(
        n_applets=args.applets, publications=args.publications,
        seed=args.seed, delivery_mode=args.delivery,
    )
    print(f"{args.applets}-applet fleet under {args.delivery}:")
    print(f"  actions executed: {result.actions_executed}")
    print(f"  median latency:   {result.median_latency():.2f} s")
    print(f"  peak polls/s:     {result.peak_polls_per_second()}")
    print(f"  mean polls/s:     {result.mean_polls_per_second():.2f}")
    print(f"  peak/mean:        {result.burstiness():.1f}")
    if args.metrics:
        _emit_metrics(result.metrics_snapshot, args.metrics)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, FaultPlanError
    from repro.obs.metrics import snapshot_to_json_lines
    from repro.testbed.chaos import CHAOS_SCENARIOS, run_chaos_scenario

    if args.scenario not in CHAOS_SCENARIOS:
        print(f"unknown chaos scenario {args.scenario!r}; "
              f"choose from {sorted(CHAOS_SCENARIOS)}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.replay_batch_limit < 1:
        print(f"--replay-batch-limit must be >= 1, got {args.replay_batch_limit}",
              file=sys.stderr)
        return 2
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.from_file(args.faults)
        except (OSError, FaultPlanError) as exc:
            print(f"cannot load fault plan {args.faults}: {exc}", file=sys.stderr)
            return 2
    replay_policies = [None, None]
    if args.replay:
        from repro.engine.resilience import ReplayPolicy

        # Batched first (its result is the one reported/snapshotted),
        # then the single-shot baseline for the comparison table.
        replay_policies = [
            ReplayPolicy(batch_limit=args.replay_batch_limit, batching=True),
            ReplayPolicy(batch_limit=args.replay_batch_limit, batching=False),
        ]
    delivery = None
    if args.adaptive:
        from repro.engine.delivery import DeliveryPolicy

        delivery = DeliveryPolicy()

    def _run(replay_policy, delivery_policy):
        return run_chaos_scenario(
            args.scenario, seed=args.seed, plan=plan,
            shards=args.shards, shard_strategy=args.shard_strategy,
            replay=replay_policy, delivery=delivery_policy,
            delivery_mode=args.delivery,
        )

    try:
        result = _run(replay_policies[0], delivery)
    except FaultPlanError as exc:
        print(f"cannot apply fault plan {args.faults}: {exc}", file=sys.stderr)
        return 2
    results = [result]
    print(result.summary())
    if args.replay:
        from repro.reporting import render_replay_comparison

        unbatched = _run(replay_policies[1], delivery)
        results.append(unbatched)
        print()
        print(render_replay_comparison(result.replay, unbatched.replay))
    adaptive_violations = []
    if args.adaptive:
        from repro.faults.plan import SERVICE_BROWNOUT
        from repro.reporting import (
            adaptive_delivery_violations,
            render_adaptive_comparison,
        )

        baseline = _run(replay_policies[0], None)
        results.append(baseline)
        print()
        print(render_adaptive_comparison(result, baseline))
        victims = {
            spec.service for spec in result.plan
            if spec.kind == SERVICE_BROWNOUT and spec.service
        }
        adaptive_violations = adaptive_delivery_violations(result, baseline, victims)
    exit_code = 0
    for run in results:
        if run.actions_silently_lost:
            print(f"INVARIANT VIOLATED: {run.actions_silently_lost} action(s) "
                  "silently lost", file=sys.stderr)
            exit_code = 1
    for violation in adaptive_violations:
        print(f"ADAPTIVE ACCEPTANCE VIOLATED: {violation}", file=sys.stderr)
        exit_code = 1
    if exit_code:
        return exit_code
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            handle.write(snapshot_to_json_lines(result.snapshot) + "\n")
        print(f"deterministic metrics snapshot written to {args.snapshot}")
    if args.metrics:
        _emit_metrics(result.snapshot, args.metrics)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.reporting import render_table
    from repro.testbed.decomposition import mean_shares, run_decomposition

    breakdowns = run_decomposition(runs=args.runs, seed=args.seed)
    shares = mean_shares(breakdowns)
    print(f"T2A decomposition over {len(breakdowns)} runs of A2/E2:")
    print(render_table(
        ["stage", "mean share"],
        [[stage, f"{share:.1%}"] for stage, share in shares.items()],
    ))
    return 0


def _cmd_export_figures(args: argparse.Namespace) -> int:
    from repro.reporting import export_all_figures

    written = export_all_figures(
        args.output, corpus_scale=args.scale, t2a_runs=args.runs, seed=args.seed
    )
    for key, path in sorted(written.items()):
        print(f"  {key:16s} -> {path}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSpecError, expand_cells, load_spec
    from repro.experiments.runner import MatrixRunError, run_cell_to_file, run_matrix
    from repro.reporting import render_experiment_table

    try:
        spec = load_spec(args.spec)
    except ExperimentSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cells = expand_cells(spec)
    if args.list:
        print(f"spec {spec.name!r}: {len(cells)} cells (sha256 {spec.sha256[:12]})")
        for cell in cells:
            print(f"  [{cell.index:4d}] {cell.sweep.name} ({cell.sweep.kind}): {cell.label()}")
        return 0

    if args.cell is not None:
        try:
            path = run_cell_to_file(spec, args.cell, args.output)
        except IndexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(path)
        return 0

    def _progress(index: int, cell) -> None:
        print(f"  cell {index:4d}/{len(cells) - 1} done: "
              f"{cell.sweep.name} {cell.label()}")

    try:
        results = run_matrix(
            spec,
            spec_path=args.spec,
            output_dir=args.output,
            jobs=args.jobs,
            isolate=not args.in_process,
            progress=_progress if not args.quiet else None,
        )
    except MatrixRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_experiment_table(results.to_dict()))
    print(f"results: {args.output}/results.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rerun the IMC'17 IFTTT characterization experiments.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ecosystem = sub.add_parser("ecosystem", help="generate, crawl, and analyze the §3 corpus")
    ecosystem.add_argument("--scale", type=float, default=0.05,
                           help="corpus scale factor in (0, 1] (default 0.05)")
    ecosystem.add_argument("--seed", type=int, default=2017)
    ecosystem.add_argument("--save", metavar="PATH", help="save crawled snapshots as JSON")
    ecosystem.set_defaults(func=_cmd_ecosystem)

    t2a = sub.add_parser("t2a", help="measure trigger-to-action latency (§4)")
    t2a.add_argument("--applet", default="A2", choices=[f"A{i}" for i in range(1, 8)])
    t2a.add_argument("--scenario", default="official",
                     help="official, E1, E2, or E3 (default official)")
    t2a.add_argument("--runs", type=int, default=20)
    t2a.add_argument("--seed", type=int, default=7)
    t2a.add_argument("--metrics", metavar="PATH",
                     help="write the run's metrics report as JSON lines")
    t2a.set_defaults(func=_cmd_t2a)

    timeline = sub.add_parser("timeline", help="print a Table 5 execution timeline")
    timeline.add_argument("--seed", type=int, default=21)
    timeline.set_defaults(func=_cmd_timeline)

    loops = sub.add_parser("loops", help="run an infinite-loop experiment (§4)")
    loops.add_argument("--kind", choices=("explicit", "implicit"), default="explicit")
    loops.add_argument("--duration", type=float, default=3600.0,
                       help="simulated seconds (default 3600)")
    loops.add_argument("--runtime-detection", action="store_true",
                       help="enable the runtime loop kill switch")
    loops.add_argument("--seed", type=int, default=3)
    loops.set_defaults(func=_cmd_loops)

    fleet = sub.add_parser("fleet", help="fleet-scale poll-vs-push experiment (§6)")
    fleet.add_argument("--applets", type=int, default=150)
    fleet.add_argument("--delivery", default="poll",
                       choices=_DELIVERY_CHOICES,
                       help="how publications reach the engine: poll (default), "
                            "hint (realtime hints, all honoured — §6's push "
                            "burst), or push (payload notifications; see "
                            "docs/DELIVERY.md)")
    fleet.add_argument("--publications", type=int, default=4)
    fleet.add_argument("--seed", type=int, default=5)
    fleet.add_argument("--metrics", metavar="PATH",
                       help="write the run's metrics report as JSON lines")
    fleet.set_defaults(func=_cmd_fleet)

    chaos = sub.add_parser("chaos", help="run a fault-injection chaos scenario")
    chaos.add_argument("--scenario", default="outage",
                       help="outage, partition, flappy, or brownout (default outage)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--shards", type=int, default=1, metavar="N",
                       help="run against a sharded engine fleet of N shards, "
                            "one epoch-stepped simulator each "
                            "(1 = the single-engine world)")
    chaos.add_argument("--shard-strategy", default="service_hash",
                       choices=("service_hash", "round_robin", "popularity_balanced"),
                       help="applet-to-shard assignment strategy (see docs/SHARDING.md)")
    chaos.add_argument("--replay", action="store_true",
                       help="enable dead-letter replay on heal and report the "
                            "catch-up burst, batched vs unbatched")
    chaos.add_argument("--replay-batch-limit", type=int, default=50, metavar="K",
                       help="actions coalesced per batched replay request "
                            "(default 50, the paper's polling limit)")
    chaos.add_argument("--delivery", default="poll",
                       choices=_DELIVERY_CHOICES,
                       help="how sensor events reach the engine: poll (default), "
                            "hint (realtime hints, all honoured), or push "
                            "(payload notifications under the push contract; "
                            "see docs/DELIVERY.md)")
    chaos.add_argument("--adaptive", action="store_true",
                       help="enable health-aware adaptive delivery, print the "
                            "adaptive-vs-polling comparison table, and enforce "
                            "the degradation acceptance criteria (exit 1 on "
                            "violation; see docs/ROBUSTNESS.md)")
    chaos.add_argument("--faults", metavar="PLAN.json",
                       help="override the scenario's fault plan with a JSON plan file")
    chaos.add_argument("--snapshot", metavar="PATH",
                       help="write the deterministic metrics snapshot (JSON lines)")
    chaos.add_argument("--metrics", metavar="PATH",
                       help="write the run's metrics report as JSON lines")
    chaos.set_defaults(func=_cmd_chaos)

    experiments = sub.add_parser(
        "experiments", help="run a declarative experiment matrix (EXPERIMENTS/*.json)"
    )
    experiments.add_argument("spec", metavar="SPEC.json",
                             help="experiment matrix spec (see EXPERIMENTS.md)")
    experiments.add_argument("--cell", type=int, metavar="I",
                             help="run only cell I and write its artifact "
                                  "(what the orchestrator's subprocesses call)")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="cells to run concurrently (default 1)")
    experiments.add_argument("--output", default="experiment-results", metavar="DIR",
                             help="output directory (default experiment-results)")
    experiments.add_argument("--in-process", action="store_true",
                             help="run cells serially in this interpreter instead "
                                  "of one subprocess per cell")
    experiments.add_argument("--list", action="store_true",
                             help="print the expanded cell list and exit")
    experiments.add_argument("--quiet", action="store_true",
                             help="suppress per-cell progress lines")
    experiments.set_defaults(func=_cmd_experiments)

    decompose = sub.add_parser("decompose", help="T2A latency stage decomposition")
    decompose.add_argument("--runs", type=int, default=15)
    decompose.add_argument("--seed", type=int, default=7)
    decompose.set_defaults(func=_cmd_decompose)

    export = sub.add_parser("export-figures", help="write every figure's data as CSV")
    export.add_argument("--output", default="figures", help="output directory")
    export.add_argument("--scale", type=float, default=0.05)
    export.add_argument("--runs", type=int, default=20)
    export.add_argument("--seed", type=int, default=7)
    export.set_defaults(func=_cmd_export_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # An unreadable input or unwritable --snapshot/--metrics/--save path.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
