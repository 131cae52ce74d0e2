# Convenience targets for the IFTTT reproduction.

# Make every target work from a bare checkout (no `pip install -e .`
# needed): prepend the src/ layout to PYTHONPATH for all recipes.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test test-fast test-shard bench bench-verbose bench-scale bench-push bench-budget examples figures chaos chaos-check replay-check degrade-check push-check parallel-check ledger-check experiments-smoke experiments-full parity-check ci lint clean

install:
	pip install -e .

test: chaos-check replay-check degrade-check push-check parallel-check ledger-check experiments-smoke bench-scale bench-push
	pytest tests/

# Tier-1 + obs tests minus the multi-second soak/full-scale/example runs;
# the inner-loop target while developing.
test-fast:
	pytest tests/ -q \
		--ignore=tests/test_fullscale.py \
		--ignore=tests/test_scenario_soak.py \
		--ignore=tests/test_examples.py

# The multi-engine sharding suites (unit + property + chaos isolation);
# see docs/SHARDING.md.
test-shard:
	pytest tests/test_sharding.py tests/test_sharding_chaos.py -q

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

# Fleet-scale perf gate (docs/PERFORMANCE.md): the committed
# BENCH_fleet_scale.json must carry events/sec + peak RSS for
# 10K/100K/1M applets and a passing heap-vs-timers snapshot gate;
# then re-run the 10K dispatch-equivalence gate live.  Regenerate the
# report with `python benchmarks/bench_fleet_scale.py --output
# BENCH_fleet_scale.json` (several minutes; the 1M run dominates).
bench-scale:
	python benchmarks/bench_fleet_scale.py --check BENCH_fleet_scale.json
	python benchmarks/bench_fleet_scale.py --gate-only

# Push-delivery gate (docs/DELIVERY.md): the committed
# BENCH_push_scale.json must carry the three-way poll/hint/push T2A
# comparison at 10K/100K/1M applets and meet the headline — push T2A
# median under 10 s where polling sits near the paper's 58 s quartile,
# engine request load cut >=2x.  Regenerate with `python
# benchmarks/bench_scalability_push.py --output BENCH_push_scale.json`
# (several minutes; the 1M runs dominate).
bench-push:
	python benchmarks/bench_scalability_push.py --check BENCH_push_scale.json

# Performance-budget gate (docs/PERFORMANCE.md, "Where an observation
# goes"): a fresh, short ledger pass must not be worse than the committed
# BENCH_obs_path.json — end-to-end timings within the bounds
# BENCHMARK.json fixes (25 %, RSS 5 %), every count and sim_fingerprint
# identical.  Wall-clock sensitive (~2 min), so it runs in the nightly
# job, not in `make ci` or `make test`.  (BENCH_poll_path.json, the
# previous budget, stays as PR 17's record: the two observed workloads
# have since got ~1.5x faster, so it would pass a full regression.)
bench-budget:
	python benchmarks/ledger/run.py --seconds 5 --output .bench-budget.json
	python benchmarks/ledger/run.py --compare BENCH_obs_path.json .bench-budget.json

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null && echo OK; done

figures:
	python -m repro export-figures --output figures/

# Run every built-in chaos scenario (fault injection + resilience).
chaos:
	@for s in outage partition flappy brownout; do \
		echo "== chaos $$s"; \
		python -m repro chaos --scenario $$s || exit 1; \
		echo; \
	done

# Determinism check: the same scenario + seed twice must produce
# byte-identical metric snapshots, both single-engine and sharded
# (docs/ROBUSTNESS.md, docs/SHARDING.md).
chaos-check:
	@for n in 1 4; do \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --snapshot .chaos-a.jsonl > /dev/null || exit 1; \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --snapshot .chaos-b.jsonl > /dev/null || exit 1; \
		cmp .chaos-a.jsonl .chaos-b.jsonl || exit 1; \
		echo "chaos determinism (--shards $$n): OK (snapshots byte-identical)"; \
	done
	@rm -f .chaos-a.jsonl .chaos-b.jsonl

# Replay determinism check: dead-letter replay with batched dispatch
# must be bit-reproducible — same scenario + seed twice, byte-identical
# snapshots (docs/ROBUSTNESS.md, "Replay & batching").
replay-check:
	@python -m repro chaos --scenario outage --seed 7 --replay --snapshot .replay-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario outage --seed 7 --replay --snapshot .replay-b.jsonl > /dev/null || exit 1
	@cmp .replay-a.jsonl .replay-b.jsonl || exit 1
	@echo "replay determinism: OK (snapshots byte-identical)"
	@rm -f .replay-a.jsonl .replay-b.jsonl

# Degradation gate: the brownout scenario with adaptive delivery must
# (a) pass every acceptance criterion — ≥3× victim request-rate drop,
# no overload dead letters on healthy services, stretch decayed, §4
# interval quartiles restored — and (b) be bit-reproducible: the same
# scenario + seed twice, byte-identical snapshots *with adaptation on*
# (docs/ROBUSTNESS.md, "Adaptive delivery & degradation ladder").
degrade-check:
	@python -m repro chaos --scenario brownout --seed 7 --adaptive --snapshot .degrade-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario brownout --seed 7 --adaptive --snapshot .degrade-b.jsonl > /dev/null || exit 1
	@cmp .degrade-a.jsonl .degrade-b.jsonl || exit 1
	@echo "degrade acceptance + determinism: OK (snapshots byte-identical)"
	@rm -f .degrade-a.jsonl .degrade-b.jsonl

# Push-delivery determinism + equivalence gate (docs/DELIVERY.md):
# (a) the same chaos scenario + seed under --delivery push must produce
# byte-identical metric snapshots, single-engine and sharded; (b) the
# poll/hint/push equivalence suite must pass across all shard strategies
# and both poll-dispatch modes.
push-check:
	@for n in 1 4; do \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --delivery push --snapshot .push-a.jsonl > /dev/null || exit 1; \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --delivery push --snapshot .push-b.jsonl > /dev/null || exit 1; \
		cmp .push-a.jsonl .push-b.jsonl || exit 1; \
		echo "push determinism (--shards $$n): OK (snapshots byte-identical)"; \
	done
	@rm -f .push-a.jsonl .push-b.jsonl
	@pytest tests/test_push_equivalence.py -q

# Parallel-stepping equivalence gate (docs/SHARDING.md, "Epoch stepping
# & the cross-shard floor"): serial (--jobs 1) and threaded (--jobs 4)
# stepping of the same sharded chaos scenario must produce
# byte-identical metric snapshots, and the serial-vs-parallel
# equivalence suite must pass across shard strategies and poll-dispatch
# modes.
parallel-check:
	@python -m repro chaos --scenario outage --seed 7 --shards 4 --jobs 1 --snapshot .par-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario outage --seed 7 --shards 4 --jobs 4 --snapshot .par-b.jsonl > /dev/null || exit 1
	@cmp .par-a.jsonl .par-b.jsonl || exit 1
	@echo "parallel determinism: OK (jobs=1 vs jobs=4 snapshots byte-identical)"
	@rm -f .par-a.jsonl .par-b.jsonl
	@pytest tests/test_parallel_equivalence.py tests/test_simcore_parallel.py -q

# Benchmark-adapter contract gate (benchmarks/ledger/README.md): the
# ledger's own suite asserts every traced entry point is still defined
# on its class and runs all five workloads traced in --quick mode, so a
# src/ refactor that breaks the adapters fails here, not in the bench
# pipeline (~20 s).
ledger-check:
	@pytest benchmarks/ledger -q

# Experiment-matrix smoke gate (EXPERIMENTS.md): run the committed
# smoke spec twice — once subprocess-isolated in parallel, once
# serially in-process — and require byte-identical results (the
# determinism artifact CI gates on; run_meta.json carries the wall
# clock and is excluded).
experiments-smoke:
	@python -m repro experiments EXPERIMENTS/matrix_smoke.json --jobs 4 --quiet --output .exp-smoke-a > /dev/null || exit 1
	@python -m repro experiments EXPERIMENTS/matrix_smoke.json --in-process --quiet --output .exp-smoke-b > /dev/null || exit 1
	@diff -r -q -x run_meta.json .exp-smoke-a .exp-smoke-b || { echo "experiments-smoke: DRIFT (results differ run over run)"; exit 1; }
	@echo "experiments-smoke: OK (results byte-identical, jobs/in-process equivalent)"
	@rm -rf .exp-smoke-a .exp-smoke-b

# Byte-parity against a base commit (tools/parity.py, ~1 min):
# `make parity-check BASE=<git-ref>` unpacks BASE beside the working
# tree (git archive; no network) and cmp-s, on both, the 18 chaos
# configurations (snapshots and printed summaries), the smoke matrix's
# results.json and the five ledger sim_fingerprints + counts at seeds 7
# and 11.  "Byte-identical to the parent" for a refactor is this one
# command.  Deliberately not part of `ci`/`test`: a PR that intends a
# behaviour change must be able to fail it on purpose.
parity-check:
	@test -n "$(BASE)" || { echo "usage: make parity-check BASE=<git-ref>"; exit 2; }
	python tools/parity.py $(BASE)

# The full nightly matrix (38 cells; a few minutes). Results land in
# experiment-results/ — results.txt is the human table.
experiments-full:
	python -m repro experiments EXPERIMENTS/matrix_full.json --jobs 8 --output experiment-results

# Lint gate: ruff when installed (CI installs it), else the repo-local
# offline fallback (tools/lint.py) so the gate runs in hermetic
# environments too. Both read ruff.toml.
lint:
	@if command -v ruff > /dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; running tools/lint.py fallback"; \
		python tools/lint.py; \
	fi

# What CI runs on every push/PR: lint, the tier-1 fast suite, the
# ledger adapter-contract suite, and the experiment smoke gate — no
# multi-minute bench regeneration.
ci: lint test-fast ledger-check experiments-smoke

clean:
	rm -rf figures/ .pytest_cache/ src/repro.egg-info/ .chaos-a.jsonl .chaos-b.jsonl .replay-a.jsonl .replay-b.jsonl .degrade-a.jsonl .degrade-b.jsonl .push-a.jsonl .push-b.jsonl .par-a.jsonl .par-b.jsonl .exp-smoke-a .exp-smoke-b experiment-results/ .bench-budget.json
	find . -name __pycache__ -type d -exec rm -rf {} +
