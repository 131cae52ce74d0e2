"""Serial vs parallel epoch stepping equivalence (ISSUE 10's headline suite).

Parallel stepping changes *how* shard heaps advance — it must never
change *what* happens.  The conservative contract in
:mod:`repro.simcore.parallel` (epoch width = lookahead, cross-shard hops
floored at the lookahead, mailboxes drained in ``(deliver_at, src,
seq)`` order) makes determinism structural, so this suite pins the
strongest form of the claim:

(a) **Byte-identical merged snapshots** — for arbitrary seeds, corpus
    shapes, and publication schedules, ``jobs=1`` (serial round-robin
    stepping) and ``jobs=4`` (threaded stepping) produce byte-for-byte
    identical merged fleet snapshots, across all shard strategies x
    both poll-dispatch modes (hypothesis, end to end over
    :class:`ShardedFleetWorld`).
(b) **Identical fired-action accounting** — executed-action counts,
    polls sent, and total events fired match exactly, not just
    statistically.
(c) **Chaos-scenario identity** — every built-in chaos scenario run on
    the epoch-stepped :class:`ShardedChaosWorld` yields
    identical delivered-action multisets (per-shard T2A samples),
    breaker transition logs, fleet stats, and byte-identical
    deterministic snapshots under serial and threaded stepping — with
    genuine cross-shard traffic in flight (sensors and sinks home to
    different cells).
(d) **Conservation** — ``dispatched == delivered + in_retry +
    dead_lettered + in_replay`` holds per shard and fleet-wide in both
    stepping modes.

``make parallel-check`` is the CLI-level counterpart: ``--jobs 1`` vs
``--jobs 4`` in separate processes, byte-compared (``tools/parity.py``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    FixedPollingPolicy,
    POLL_DISPATCH_MODES,
    SHARD_STRATEGIES,
)
from repro.obs.metrics import deterministic_snapshot
from repro.testbed.chaos import CHAOS_SCENARIOS, run_sharded_chaos_scenario
from repro.testbed.workload import ShardedFleetWorld

JOBS = 4


def fleet_config(dispatch: str) -> EngineConfig:
    return EngineConfig(
        poll_policy=FixedPollingPolicy(20.0),
        initial_poll_delay=0.5,
        poll_timeout=10.0,
        action_timeout=10.0,
        poll_dispatch=dispatch,
    )


def run_fleet(jobs, *, strategy, dispatch, seed, n_applets, publications):
    world = ShardedFleetWorld(
        n_applets,
        num_shards=3,
        jobs=jobs,
        engine_config=fleet_config(dispatch),
        seed=seed,
        shard_strategy=strategy,
    )
    try:
        return world.run_publications(publications, spacing=120.0)
    finally:
        world.shutdown()


def snapshot_bytes(snapshot) -> bytes:
    """Canonical wire form: the byte-identity the suite asserts on."""
    return json.dumps(
        deterministic_snapshot(snapshot), sort_keys=True
    ).encode("utf-8")


class TestFleetEquivalence:
    @given(
        strategy=st.sampled_from(sorted(SHARD_STRATEGIES)),
        dispatch=st.sampled_from(sorted(POLL_DISPATCH_MODES)),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        n_applets=st.integers(min_value=6, max_value=24),
        publications=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=6, deadline=None)
    def test_serial_and_threaded_stepping_are_byte_identical(
        self, strategy, dispatch, seed, n_applets, publications
    ):
        serial = run_fleet(
            1, strategy=strategy, dispatch=dispatch, seed=seed,
            n_applets=n_applets, publications=publications,
        )
        threaded = run_fleet(
            JOBS, strategy=strategy, dispatch=dispatch, seed=seed,
            n_applets=n_applets, publications=publications,
        )
        assert serial.actions_executed == threaded.actions_executed
        assert serial.actions_executed == n_applets * publications
        assert serial.polls_sent == threaded.polls_sent
        assert serial.events_fired == threaded.events_fired
        assert snapshot_bytes(serial.metrics_snapshot) == snapshot_bytes(
            threaded.metrics_snapshot
        )

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    def test_every_strategy_pinned(self, strategy):
        serial = run_fleet(
            1, strategy=strategy, dispatch="heap", seed=42,
            n_applets=12, publications=3,
        )
        threaded = run_fleet(
            JOBS, strategy=strategy, dispatch="heap", seed=42,
            n_applets=12, publications=3,
        )
        assert serial.actions_executed == threaded.actions_executed == 36
        assert snapshot_bytes(serial.metrics_snapshot) == snapshot_bytes(
            threaded.metrics_snapshot
        )


def run_chaos(scenario, jobs, **kwargs):
    return run_sharded_chaos_scenario(scenario, jobs=jobs, **kwargs)


def assert_chaos_identical(serial, threaded):
    # The delivered-action multiset: per-shard, per-fault-phase T2A
    # samples carry both identity and timing of every delivery.
    assert serial.t2a_by_shard == threaded.t2a_by_shard
    assert (
        serial.breaker_transitions_by_shard
        == threaded.breaker_transitions_by_shard
    )
    assert serial.fleet_stats == threaded.fleet_stats
    assert serial.shard_stats == threaded.shard_stats
    assert serial.events_injected == threaded.events_injected
    assert serial.events_observed == threaded.events_observed
    assert serial.fault_window_requests == threaded.fault_window_requests
    serial_bytes = json.dumps(serial.snapshot, sort_keys=True).encode()
    threaded_bytes = json.dumps(threaded.snapshot, sort_keys=True).encode()
    assert serial_bytes == threaded_bytes
    assert json.dumps(
        serial.merged_engine_snapshot, sort_keys=True
    ) == json.dumps(threaded.merged_engine_snapshot, sort_keys=True)


class TestChaosEquivalence:
    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_scenarios_byte_identical(self, scenario):
        serial = run_chaos(scenario, jobs=1)
        threaded = run_chaos(scenario, jobs=JOBS)
        assert serial.jobs == 1 and threaded.jobs == JOBS
        assert_chaos_identical(serial, threaded)
        # The equivalence must be exercised, not vacuous: the epoch
        # machinery ran and real cross-shard traffic was in flight.
        assert threaded.epochs > 0
        assert threaded.cross_shard_messages > 0
        assert threaded.mailbox_messages >= threaded.cross_shard_messages

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    def test_strategies_byte_identical_under_partition(self, strategy):
        serial = run_chaos("partition", jobs=1, shard_strategy=strategy)
        threaded = run_chaos("partition", jobs=JOBS, shard_strategy=strategy)
        assert_chaos_identical(serial, threaded)

    def test_conservation_holds_in_both_modes(self):
        for jobs in (1, JOBS):
            result = run_chaos("outage", jobs=jobs)
            for stats in result.shard_stats:
                lost = (
                    stats["actions_dispatched"]
                    - stats["actions_delivered"]
                    - stats["actions_in_retry"]
                    - stats["dead_letters"]
                    - stats["actions_in_replay"]
                )
                assert lost == 0
