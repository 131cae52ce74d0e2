"""Heap-scheduler equivalence against a one-event-per-poll oracle (ISSUE 6).

The heap scheduler's whole contract is *observational equivalence*: for
the same seed and corpus it must fire the same polls at the same
simulation times in the same order as one simulator timer event per
poll would, consuming the engine RNG identically — so traces, T2A
samples, and deterministic metric snapshots (filtered through
:func:`dispatch_invariant_snapshot`) are identical, and only wall-clock
gauges may differ.  Each poll is one kernel heap entry under either
dispatch, so even the kernel's event counters agree.

:class:`_TimerOracle` is that one-event-per-poll dispatch, kept here as
the reference: :func:`dispatching_with` builds engines with it in place
of ``HeapPollScheduler``.  This suite pins the contract with hypothesis
over seeds and corpus shapes, end-to-end over the fleet workload, across
all three shard strategies, plus the regression tests for the
per-service bound handles of ``{ns}.polls_sent`` /
``{ns}.poll_interval_seconds`` (registry swap, shard namespacing).
"""

import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ActionRef,
    EngineConfig,
    FixedPollingPolicy,
    ProductionPollingPolicy,
    SHARD_STRATEGIES,
    ShardedEngine,
    TriggerRef,
)
from repro.engine.engine import _AppletRuntime
from repro.engine.applet import Applet
from repro.engine.oauth import OAuthAuthority
from repro.engine.scheduler import HeapPollScheduler
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import WALLCLOCK_METRICS, MetricsRegistry
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator
from repro.testbed.workload import FleetWorld

from tests.helpers import build_engine_world, install_ping_applet

def dispatch_invariant_snapshot(metrics) -> dict:
    """A registry snapshot minus the wall-clock metrics."""
    return {
        "metrics": [
            entry for entry in metrics.snapshot()["metrics"]
            if entry["name"] not in WALLCLOCK_METRICS
        ]
    }


def snapshot_blob(metrics) -> bytes:
    """Canonical bytes of the dispatch-invariant part of a registry."""
    return json.dumps(dispatch_invariant_snapshot(metrics), sort_keys=True).encode()


class _TimerOracle:
    """The reference dispatch: one simulator timer event per scheduled poll.

    Slow and obvious — every reschedule cancels the applet's live event
    and schedules a fresh one — which is what makes it the reference.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.pending = {}  # runtime -> its one live poll Event

    def schedule(self, runtime, delay: float, initial: bool = False) -> None:
        self.cancel(runtime)
        self.pending[runtime] = self.engine.sim.schedule(delay, self._fire, runtime)

    def cancel(self, runtime) -> None:
        event = self.pending.pop(runtime, None)
        if event is not None:
            event.cancel()

    def _fire(self, runtime) -> None:
        del self.pending[runtime]
        self.engine._poll(runtime)


@contextmanager
def dispatching_with(scheduler):
    """Every ``IftttEngine`` built inside uses ``scheduler`` for its polls."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.engine.HeapPollScheduler", scheduler)
        yield


# -- scheduler-level harness ----------------------------------------------------


class StubEngine:
    """The minimal surface a poll scheduler needs: ``sim`` and ``_poll``."""

    def __init__(self, scheduler=HeapPollScheduler):
        self.sim = Simulator()
        self._scheduler = scheduler(self)
        self.fired = []

    def add_runtime(self, applet_id: int) -> _AppletRuntime:
        applet = Applet(
            applet_id=applet_id,
            name=f"a{applet_id}",
            user="u",
            trigger=TriggerRef("svc", "t"),
            action=ActionRef("svc", "a", {}),
        )
        return _AppletRuntime(applet=applet, policy=FixedPollingPolicy(10.0))

    def _poll(self, runtime):
        self.fired.append((self.sim.now, runtime.applet.applet_id))


class TestFactoryAndConfig:
    def test_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            EngineConfig(poll_dispatch="cron")
        with pytest.raises(ValueError, match="per-applet-timer dispatch was removed"):
            EngineConfig(poll_dispatch="timers")

    def test_config_defaults_to_heap(self):
        assert EngineConfig().poll_dispatch == "heap"

    def test_negative_delay_rejected(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        with pytest.raises(ValueError):
            engine._scheduler.schedule(runtime, -1.0)


class TestHeapSchedulerSemantics:
    def test_same_instant_polls_fire_in_scheduling_order(self):
        engine = StubEngine()
        runtimes = [engine.add_runtime(i) for i in range(50)]
        for runtime in runtimes:
            engine._scheduler.schedule(runtime, 5.0)
        assert engine._scheduler.stats()["live_entries"] == engine.sim.pending == 50
        engine.sim.run()
        stats = engine._scheduler.stats()
        assert set(stats) == {"heap_entries", "live_entries", "stale_entries",
                              "compactions", "wakes", "batched_polls"}
        # one kernel entry per poll: every fire dispatches exactly one
        assert stats["wakes"] == stats["batched_polls"] == engine.sim.fired_count == 50
        # FIFO within the instant: scheduling order is firing order
        assert engine.fired == [(5.0, i) for i in range(50)]

    def test_timer_mode_fires_identically(self):
        heap_engine, timer_engine = StubEngine(), StubEngine(_TimerOracle)
        for engine in (heap_engine, timer_engine):
            for i in range(20):
                runtime = engine.add_runtime(i)
                engine._scheduler.schedule(runtime, 1.0 + (i % 7) * 0.5)
            engine.sim.run()
        assert heap_engine.fired == timer_engine.fired

    def test_reschedule_supersedes_earlier_entry(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        engine._scheduler.schedule(runtime, 8.0)
        engine._scheduler.schedule(runtime, 2.0)  # hint pulls the poll earlier
        engine.sim.run()
        assert engine.fired == [(2.0, 1)]
        stats = engine._scheduler.stats()
        assert stats["stale_entries"] == 0  # stale entry consumed on pop
        assert engine.sim.fired_count == 1  # and never fired

    def test_cancel_is_lazy_and_accounted(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        engine._scheduler.schedule(runtime, 3.0)
        engine._scheduler.cancel(runtime)
        stats = engine._scheduler.stats()
        assert (stats["stale_entries"], stats["live_entries"]) == (1, 0)
        assert (engine.sim.pending, engine.sim._dead) == (0, 1)
        engine.sim.run()
        assert engine.fired == []  # the dead entry is skipped, not fired
        assert engine.sim.fired_count == 0
        assert engine._scheduler.stats()["stale_entries"] == 0

    def test_wake_pulled_earlier_by_nearer_poll(self):
        engine = StubEngine()
        late, early = engine.add_runtime(1), engine.add_runtime(2)
        engine._scheduler.schedule(late, 30.0)
        engine._scheduler.schedule(early, 1.0)
        engine.sim.run_until(2.0)
        assert engine.fired == [(1.0, 2)]
        engine.sim.run()
        assert engine.fired == [(1.0, 2), (30.0, 1)]


# -- end-to-end fleet equivalence ----------------------------------------------


def fleet_config() -> EngineConfig:
    return EngineConfig(
        poll_policy=ProductionPollingPolicy(median=60.0, minimum=20.0),
        initial_poll_jitter=40.0,
    )


def run_fleet(scheduler, n_applets: int, seed: int, publications: int):
    """One instrumented fleet run; returns every dispatch-visible output."""
    with dispatching_with(scheduler):
        world = FleetWorld(n_applets, engine_config=fleet_config(), seed=seed)
        result = world.run_publications(publications=publications, spacing=150.0)
    polls = [
        (rec.time, rec.get("applet_id"))
        for rec in world.trace.query(kind="engine_poll_sent")
    ]
    return {
        "polls": polls,
        "latencies": result.latencies,  # the §4 T2A samples
        "actions": result.actions_executed,
        "snapshot": snapshot_blob(world.metrics),
        "scheduler": type(world.engine._scheduler),
    }


class TestFleetEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_applets=st.integers(min_value=3, max_value=25),
        publications=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=6, deadline=None)
    def test_same_seed_same_world(self, seed, n_applets, publications):
        heap = run_fleet(HeapPollScheduler, n_applets, seed, publications)
        oracle = run_fleet(_TimerOracle, n_applets, seed, publications)
        assert heap["scheduler"] is HeapPollScheduler
        assert oracle["scheduler"] is _TimerOracle
        # identical poll orderings, to the simulation instant
        assert heap["polls"] == oracle["polls"]
        # identical T2A samples
        assert heap["latencies"] == oracle["latencies"]
        assert heap["actions"] == oracle["actions"]
        # byte-identical deterministic snapshot
        assert heap["snapshot"] == oracle["snapshot"]

    def test_larger_fleet_pinned_case(self):
        heap = run_fleet(HeapPollScheduler, 120, seed=2017, publications=2)
        oracle = run_fleet(_TimerOracle, 120, seed=2017, publications=2)
        assert heap["polls"] == oracle["polls"]
        assert len(heap["polls"]) > 200
        assert heap["snapshot"] == oracle["snapshot"]

    def test_full_snapshots_differ_only_in_wallclock_gauges(self):
        # the full (unfiltered) snapshots may differ ONLY on wall-clock
        # gauges: the kernel counters agree too
        results = {}
        for scheduler in (HeapPollScheduler, _TimerOracle):
            with dispatching_with(scheduler):
                world = FleetWorld(40, engine_config=fleet_config(), seed=9)
                world.run_publications(publications=1, spacing=150.0)
            results[scheduler] = world.metrics.snapshot()
        heap, oracle = results[HeapPollScheduler]["metrics"], results[_TimerOracle]["metrics"]
        assert [entry["name"] for entry in heap] == [entry["name"] for entry in oracle]
        differing = {
            heap_entry["name"]
            for heap_entry, oracle_entry in zip(heap, oracle)
            if heap_entry != oracle_entry
        }
        assert differing <= WALLCLOCK_METRICS
        assert "sim.events_fired" in {entry["name"] for entry in heap}


# -- sharded equivalence --------------------------------------------------------


def run_sharded(scheduler, strategy: str, seed: int = 11):
    """A 3-shard fleet over 5 services with event traffic."""
    sim = Simulator()
    rng = Rng(seed=seed, name="equiv-shard")
    metrics = MetricsRegistry()
    sim.metrics = metrics
    net = Network(sim, rng.fork("network"), metrics=metrics)
    # Jittered (continuous) poll times: exact cross-shard ties are
    # measure-zero, so the global order is the polls' own and not the
    # tie rule's — the property under test is that both dispatches
    # produce it, down to what shared order-sensitive state (the float
    # sum of a net.* histogram) observes.
    config = EngineConfig(
        poll_policy=ProductionPollingPolicy(median=8.0, sigma=0.4, minimum=2.0),
        initial_poll_delay=0.5,
        initial_poll_jitter=3.0,
    )
    with dispatching_with(scheduler):
        fleet = ShardedEngine(
            net, config=config, rng=rng.fork("engine"),
            num_shards=3, shard_strategy=strategy,
        )
    delivered = []
    services = []
    for i in range(5):
        service = net.add_node(PartnerService(
            Address(f"svc{i}.cloud"), slug=f"svc{i}", service_time=0.0,
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record",
            executor=lambda fields, i=i: delivered.append((i, dict(fields))),
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(0.01))
        fleet.publish_service(service)
        authority = OAuthAuthority(service.slug)
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        services.append(service)
    for i in range(5):
        fleet.install_applet(
            user="alice", name=f"a{i}",
            trigger=TriggerRef(f"svc{i}", "ping"),
            action=ActionRef(f"svc{i}", "record", {"n": "{{n}}"}),
        )
    for i in range(8):
        sim.schedule(2.0 + i, services[i % 5].ingest_event, "ping", {"n": i})
    sim.run_until(40.0)
    conservation = [
        shard.actions_dispatched
        == shard.actions_delivered + shard.actions_in_retry
        + len(shard.dead_letters) + shard.actions_in_replay
        for shard in fleet.shards
    ]
    return {
        "delivered": delivered,
        "snapshot": snapshot_blob(metrics),
        "schedulers": [type(shard._scheduler) for shard in fleet.shards],
        "conservation": conservation,
    }


class TestShardedEquivalence:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_modes_agree_under_every_strategy(self, strategy):
        heap = run_sharded(HeapPollScheduler, strategy)
        oracle = run_sharded(_TimerOracle, strategy)
        assert heap["schedulers"] == [HeapPollScheduler] * 3
        assert oracle["schedulers"] == [_TimerOracle] * 3
        assert heap["delivered"] == oracle["delivered"]
        assert len(heap["delivered"]) == 8
        # merged-snapshot algebra preserved: identical shard-scoped and
        # merged engine.* series, byte for byte
        assert heap["snapshot"] == oracle["snapshot"]
        assert all(heap["conservation"]) and all(oracle["conservation"])


# -- per-service bound metric handles (satellite) -------------------------------


def histogram_counts(metrics) -> dict:
    """Map histogram name -> observation count from a registry snapshot."""
    return {
        entry["name"]: entry["count"]
        for entry in metrics.snapshot()["metrics"]
        if entry["type"] == "histogram"
    }


class TestSampleIntervalCache:
    """The sampled-interval histogram (and the polls-sent counter) are
    held by the service record's ``Bound``, not looked up per poll."""

    def test_registry_swap_rebinds_service_handles(self):
        # swapping engine.metrics mid-run must move both per-service
        # handles to the new registry; the old one stops moving
        world = build_engine_world()          # fixed 10 s polls from t=0.5
        engine = world.engine
        first, second = MetricsRegistry(), MetricsRegistry()
        engine.metrics = first
        install_ping_applet(engine)
        world.sim.run_until(25.0)
        held = engine.service_registration("svc").bound.held
        assert held(first)["polls_sent"] is first.get("engine.polls_sent", service="svc")
        assert held(first)["polls_sent"].value == 3
        assert histogram_counts(first)["engine.poll_interval_seconds"] == 3
        frozen = json.dumps(first.snapshot(), sort_keys=True)
        engine.metrics = second
        world.sim.run_until(55.0)
        assert json.dumps(first.snapshot(), sort_keys=True) == frozen
        assert held(second)["polls_sent"] is second.get("engine.polls_sent", service="svc")
        assert held(second)["polls_sent"].value == 3
        assert held(second)["poll_interval_seconds"] is second.get(
            "engine.poll_interval_seconds", policy="FixedPollingPolicy", service="svc"
        )
        assert histogram_counts(second)["engine.poll_interval_seconds"] == 3

    def test_sharded_fleet_namespaces_isolated(self):
        # end-to-end: per-shard poll_interval histograms receive exactly
        # that shard's polls (no cross-shard handle leakage)
        sim = Simulator()
        rng = Rng(seed=4, name="ns")
        metrics = MetricsRegistry()
        net = Network(sim, rng.fork("network"), metrics=metrics)
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(5.0),
            initial_poll_delay=0.5,
        )
        fleet = ShardedEngine(
            net, config=config, rng=rng.fork("engine"),
            num_shards=2, shard_strategy="round_robin",
        )
        service = net.add_node(PartnerService(
            Address("svc.cloud"), slug="svc", service_time=0.0,
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record", executor=lambda fields: None,
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(0.01))
        fleet.publish_service(service)
        authority = OAuthAuthority("svc")
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        for i in range(4):
            fleet.install_applet(
                user="alice", name=f"a{i}",
                trigger=TriggerRef("svc", "ping"),
                action=ActionRef("svc", "record", {"n": "{{n}}"}),
            )
        sim.run_until(30.0)
        by_name = histogram_counts(metrics)
        per_shard = {
            index: sum(
                count
                for name, count in by_name.items()
                if name == f"engine.shard{index}.poll_interval_seconds"
            )
            for index in (0, 1)
        }
        polls = {
            index: shard.polls_sent for index, shard in enumerate(fleet.shards)
        }
        assert per_shard == polls
        assert all(count > 0 for count in per_shard.values())
