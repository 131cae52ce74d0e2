# Convenience targets for the IFTTT reproduction.

# Make every target work from a bare checkout (no `pip install -e .`
# needed): prepend the src/ layout to PYTHONPATH for all recipes.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test test-fast test-shard bench-scale bench-push bench-budget examples figures chaos chaos-check replay-check degrade-check push-check experiments-smoke testbed-check determinism-check ledger-check experiments-full parity-check ci lint clean

install:
	pip install -e .

test: determinism-check ledger-check bench-scale bench-push
	pytest tests/

# Tier-1 + obs tests minus the multi-second soak/full-scale/example runs;
# the inner-loop target while developing.
test-fast:
	pytest tests/ -q \
		--ignore=tests/test_fullscale.py \
		--ignore=tests/test_scenario_soak.py \
		--ignore=tests/test_examples.py

# The coupled-world suites: multi-engine sharding (unit + property +
# chaos isolation), the epoch stepper against its reference loop, and
# the delivery and push chaos worlds; see docs/SHARDING.md.
test-shard:
	pytest tests/test_sharding.py tests/test_sharding_chaos.py \
		tests/test_simcore_parallel.py tests/test_delivery_chaos.py \
		tests/test_push_chaos.py -q

# Fleet-scale perf gate (docs/PERFORMANCE.md): the committed
# BENCH_fleet_scale.json must carry events/sec + peak RSS for
# 10K/100K/1M applets.  Regenerate the report with `python
# benchmarks/bench_fleet_scale.py --output BENCH_fleet_scale.json`
# (several minutes; the 1M run dominates).
bench-scale:
	python benchmarks/bench_fleet_scale.py --check BENCH_fleet_scale.json

# Push-delivery gate (docs/DELIVERY.md): the committed
# BENCH_push_scale.json must carry the three-way poll/hint/push T2A
# comparison at 10K/100K/1M applets and meet the headline — push T2A
# median under 10 s where polling sits near the paper's 58 s quartile,
# engine request load cut >=2x.  Regenerate with `python
# benchmarks/bench_scalability_push.py --output BENCH_push_scale.json`
# (several minutes; the 1M runs dominate).
bench-push:
	python benchmarks/bench_scalability_push.py --check BENCH_push_scale.json

# Performance-budget gate (docs/PERFORMANCE.md, "The timeout as an armed
# deadline"): a fresh, short ledger pass must not be worse than
# the committed BENCH_http_timeouts.json — end-to-end timings within the
# bounds BENCHMARK.json fixes (25 %, RSS 5 %), every count and
# sim_fingerprint identical.  Wall-clock sensitive (~2 min), so it runs
# in the nightly job, not in `make ci` or `make test`.
bench-budget:
	python benchmarks/ledger/run.py --seconds 5 --output .bench-budget.json
	python benchmarks/ledger/run.py --compare BENCH_http_timeouts.json .bench-budget.json

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

# Determinism gates: tools/parity.py runs its table (the one list of
# pinned configurations) twice on the working tree, side A under
# PYTHONHASHSEED=1 and side B under PYTHONHASHSEED=2, each row in a temp
# directory, and byte-compares what the rows leave — snapshot, printed
# summary, exit status (degrade-check's acceptance criteria are its
# rows' exit 0).  Each alias below is one group of rows (table in
# docs/ROBUSTNESS.md, "Determinism gates"); determinism-check is every
# row once (~20 s).  The poll/hint/push equivalence suite is a tier-1
# test: it runs under `pytest tests/`.
chaos-check replay-check degrade-check push-check experiments-smoke testbed-check:
	@python tools/parity.py $@

determinism-check:
	@python tools/parity.py

# Benchmark-adapter contract gate (benchmarks/ledger/README.md): the
# ledger's own suite asserts every traced entry point is still defined
# on its class and runs all five workloads traced in --quick mode, so a
# src/ refactor that breaks the adapters fails here, not in the bench
# pipeline (~20 s).
ledger-check:
	@pytest benchmarks/ledger -q

# Byte-parity against a base commit (~55 s): `make parity-check
# BASE=<git-ref>` is the same runner with `git archive BASE` as side A —
# the 18 single-variant chaos rows, the ladder walk, the chaos-shapes
# matrix, the 12 testbed rows, the smoke matrix's results.json and
# the five ledger sim_fingerprints + counts at seeds 7 and 11.
# "Byte-identical to the parent" for a refactor is this one command; a
# change that means to move outputs declares which fields may differ and
# passes EXPECT=<declaration> (`make parity-check BASE=<parent>
# EXPECT=DRIFT.json`), and everything else must still be identical.
# Deliberately not part of `ci`/`test`: a PR that intends a behaviour
# change must be able to fail it on purpose.
parity-check:
	@test -n "$(BASE)" || { echo "usage: make parity-check BASE=<git-ref> [EXPECT=DRIFT.json]"; exit 2; }
	python tools/parity.py $(BASE) $(if $(EXPECT),--expect $(EXPECT))

# The full nightly matrix (32 cells; a few minutes). Results land in
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
# ledger adapter-contract suite and every determinism row — no
# multi-minute bench regeneration.
ci: lint test-fast ledger-check determinism-check

clean:
	rm -rf figures/ .pytest_cache/ src/repro.egg-info/ experiment-results/ .bench-budget.json
	find . -name __pycache__ -type d -exec rm -rf {} +
