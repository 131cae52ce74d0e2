"""Churn regressions for the poll scheduler.

Each poll is one plain entry in the kernel heap, among the events, and
a cancel leaves it there, dead, until it surfaces or the kernel
compacts.  These tests pin the hygiene obligations that come with that
trade: an uninstall storm (three quarters of the fleet removed mid-run)
and a disable/enable storm must trigger the kernel's compaction rather
than pinning the heap at its pre-storm size, ``_retry_timers``
cancellation on uninstall must keep working (parked retries
dead-letter, not leak), and the action conservation invariant
``dispatched == delivered + in_retry + dead_lettered + in_replay`` must
survive the storm.  The storm itself must poll exactly as the
one-event-per-poll reference (``_TimerOracle``) does, including across
the compaction floor.
"""

from repro.engine import EngineConfig, FixedPollingPolicy, ReplayPolicy
from repro.engine.scheduler import HeapPollScheduler
from repro.net.http import HttpError
from repro.simcore.simulator import COMPACT_MIN_DEAD

from tests.helpers import build_engine_world, install_ping_applet, live_scan
from tests.test_scheduler_equivalence import _TimerOracle, dispatching_with


def storm_world(n_applets: int, **config_overrides):
    """A single-engine world with ``n_applets`` fast-polling applets."""
    config = EngineConfig(
        poll_policy=FixedPollingPolicy(2.0),
        initial_poll_delay=0.5,
        **config_overrides,
    )
    world = build_engine_world(config, with_trace=False)
    applets = [
        install_ping_applet(world.engine, name=f"storm applet {i}")
        for i in range(n_applets)
    ]
    return world, applets


def kernel_heap_bounded(sim) -> bool:
    """The kernel's compaction bound, and its live count against a scan."""
    live = sim.pending
    return live == live_scan(sim) and len(sim._heap) <= live + max(COMPACT_MIN_DEAD, live)


def conservation_holds(engine) -> bool:
    return engine.actions_dispatched == (
        engine.actions_delivered
        + engine.actions_in_retry
        + len(engine.dead_letters)
        + engine.actions_in_replay
    )


class TestUninstallStormCompaction:
    def test_storm_compacts_stale_entries(self):
        # enough applets that the storm's dead polls cross the kernel's
        # compaction floor and outnumber everything live
        n = COMPACT_MIN_DEAD * 2
        world, applets = storm_world(n)
        world.sim.run_until(5.0)  # everyone polled at least once
        stats = world.engine.poll_dispatch_stats()
        assert stats["live_entries"] == n
        for applet in applets[: 3 * n // 4]:  # the storm: 75% removed mid-run
            world.engine.uninstall_applet(applet.applet_id)
        stats = world.engine.poll_dispatch_stats()
        # the kernel compacted mid-storm (cancel-triggered): its heap
        # cannot be pinned at pre-storm size with most entries dead
        assert stats["compactions"] >= 1
        assert stats["heap_entries"] < n
        assert stats["live_entries"] == n // 4
        assert stats["stale_entries"] < COMPACT_MIN_DEAD
        assert kernel_heap_bounded(world.sim)
        world.sim.run_until(15.0)
        # survivors keep polling; the removed ones stay silent
        assert world.engine.stats()["applets"] == n // 4
        assert world.engine.poll_dispatch_stats()["live_entries"] == n // 4
        assert kernel_heap_bounded(world.sim)

    def test_small_heaps_skip_compaction(self):
        world, applets = storm_world(10)
        world.sim.run_until(3.0)
        for applet in applets[:5]:
            world.engine.uninstall_applet(applet.applet_id)
        stats = world.engine.poll_dispatch_stats()
        # below COMPACT_MIN_DEAD nothing compacts: stale entries are
        # cheap and get dropped when they surface instead
        assert stats["compactions"] == 0
        world.sim.run_until(6.0)
        assert world.engine.poll_dispatch_stats()["stale_entries"] == 0

    def test_uninstalled_applets_never_poll_again(self):
        world, applets = storm_world(20)
        world.sim.run_until(3.0)
        victim = applets[3]
        polls_before = world.engine.poll_count(victim.applet_id)
        world.engine.uninstall_applet(victim.applet_id)
        world.sim.run_until(20.0)
        assert victim.applet_id not in [
            rt.applet.applet_id for rt in world.engine._applets.values()
        ]
        assert world.engine.stats()["applets"] == 19
        assert polls_before >= 1

    def test_reinstall_after_storm_polls_fresh(self):
        world, applets = storm_world(50)
        world.sim.run_until(3.0)
        for applet in applets:
            world.engine.uninstall_applet(applet.applet_id)
        replacement = install_ping_applet(world.engine, name="replacement")
        world.sim.run_until(10.0)
        assert world.engine.poll_count(replacement.applet_id) >= 1
        stats = world.engine.poll_dispatch_stats()
        assert stats["live_entries"] == 1


class TestDisableEnableChurn:
    def test_disable_halts_enable_resumes(self):
        world, applets = storm_world(8)
        world.sim.run_until(3.0)
        target = applets[0]
        world.engine.disable_applet(target.applet_id)
        halted_at = world.engine.poll_count(target.applet_id)
        world.sim.run_until(9.0)
        assert world.engine.poll_count(target.applet_id) == halted_at
        world.engine.enable_applet(target.applet_id)
        world.sim.run_until(15.0)
        assert world.engine.poll_count(target.applet_id) > halted_at

    def test_rapid_toggle_leaves_one_live_entry(self):
        world, applets = storm_world(5)
        target = applets[0]
        # enough toggles that the dead entries cross the compaction floor
        for _ in range(COMPACT_MIN_DEAD + 25):
            world.engine.disable_applet(target.applet_id)
            world.engine.enable_applet(target.applet_id)
        stats = world.engine.poll_dispatch_stats()
        assert stats["live_entries"] == 5
        assert stats["compactions"] == 1
        assert stats["stale_entries"] < COMPACT_MIN_DEAD
        assert kernel_heap_bounded(world.sim)
        world.sim.run_until(10.0)
        # the toggled applet polls normally afterwards
        assert world.engine.poll_count(target.applet_id) >= 1
        assert world.engine.poll_dispatch_stats()["stale_entries"] == 0


class TestRetryTimersUnderStorm:
    def retry_world(self, n_applets: int = 12, **config_overrides):
        # Polls must keep succeeding (events have to be *observed* to
        # dispatch actions), so the fault is injected on the action
        # executor only — not via set_outage, which fails polls too.
        # The first failures at ~2.5 s open the service's breaker until
        # ~34.5 s, which sheds each retry (burning its attempt): the
        # 1 / 2 / 4 s backoff parks every action in retry from ~5.5 s to
        # its last try at ~9.5 s, the window the storm hits at 8 s.
        world, applets = storm_world(n_applets, **config_overrides)
        action = world.service._actions["record"]
        original_executor = action.executor

        def exploding(fields):
            raise HttpError(500, "action backend down")

        action.executor = exploding

        def heal():
            action.executor = original_executor

        return world, applets, heal

    def test_uninstall_cancels_parked_retries(self):
        world, applets, _ = self.retry_world()
        world.sim.run_until(1.5)  # registration polls done
        for i in range(4):
            world.service.ingest_event("ping", {"n": i})
        world.sim.run_until(8.0)  # events observed, two retries shed, the last parked
        engine = world.engine
        assert engine.actions_in_retry == 12 * 4
        assert conservation_holds(engine)
        in_retry_before = engine.actions_in_retry
        assert len(engine._retry_timers) == in_retry_before
        # the storm: remove every applet while retries are parked
        for applet in applets:
            engine.uninstall_applet(applet.applet_id)
        assert engine.actions_in_retry == 0
        assert len(engine._retry_timers) == 0
        removed = [
            letter for letter in engine.dead_letters
            if letter.reason == "applet_removed"
        ]
        assert len(removed) == in_retry_before
        assert conservation_holds(engine)
        world.sim.run_until(120.0)
        # no zombie retry ever fires for a removed applet
        assert engine.actions_in_retry == 0
        assert engine.actions_delivered == 0
        assert conservation_holds(engine)

    def test_conservation_through_fault_recovery(self):
        # The open breaker sheds the last retries into the dead-letter
        # sink; replay brings them back when it closes.
        world, applets, heal = self.retry_world(replay_policy=ReplayPolicy())
        world.sim.run_until(1.5)
        for i in range(3):
            world.service.ingest_event("ping", {"n": i})
        world.sim.run_until(8.0)
        assert world.engine.actions_in_retry == 12 * 3
        # half the fleet removed mid-fault, then the backend recovers
        for applet in applets[: len(applets) // 2]:
            world.engine.uninstall_applet(applet.applet_id)
        assert conservation_holds(world.engine)
        heal()
        world.sim.run_until(200.0)  # the breaker closes, the shed last retries replay and land
        engine = world.engine
        assert engine.actions_in_retry == 0
        assert engine.actions_delivered == 6 * 3  # the half still installed
        assert [letter.reason for letter in engine.dead_letters] == ["applet_removed"] * 6 * 3
        assert conservation_holds(engine)


class TestStormEquivalenceAcrossModes:
    """An uninstall storm polls exactly as the one-event-per-poll oracle."""

    def storm(self, scheduler, n_applets: int, until: float, horizon: float):
        with dispatching_with(scheduler):
            world, applets = storm_world(n_applets)
            world.sim.run_until(until)
            for index, applet in enumerate(applets):
                if index % 4:  # three quarters removed
                    world.engine.uninstall_applet(applet.applet_id)
            world.sim.run_until(horizon)
        outcome = {
            "polls": world.engine.polls_sent,
            "applets": world.engine.stats()["applets"],
            "per_applet": [
                world.engine.poll_count(applet.applet_id)
                for applet in applets[::4]
            ],
            "events_fired": world.sim.fired_count,
        }
        return outcome, world.engine

    def test_storm_world_counters_match(self):
        heap, _ = self.storm(HeapPollScheduler, 60, until=5.0, horizon=20.0)
        oracle, _ = self.storm(_TimerOracle, 60, until=5.0, horizon=20.0)
        assert heap == oracle

    def test_storm_across_the_compaction_floor_matches(self):
        # three quarters of 2 * COMPACT_MIN_DEAD uninstalled at once: the
        # kernel compacts mid-storm, which must not move a single poll
        n = 2 * COMPACT_MIN_DEAD
        heap, engine = self.storm(HeapPollScheduler, n, until=5.0, horizon=15.0)
        oracle, _ = self.storm(_TimerOracle, n, until=5.0, horizon=15.0)
        assert engine.poll_dispatch_stats()["compactions"] >= 1
        assert heap == oracle
