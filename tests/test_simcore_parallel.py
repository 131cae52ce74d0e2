"""Unit tests for epoch-barriered sharded stepping plus simcore
regressions.

The stepper enters only the shards that have work and crosses runs of
empty epochs without entering any; ``TestAgainstTheReferenceStepper``
keeps the loop that entered every shard in every epoch and requires the
same fires, clocks and counters from both on drawn schedules.

Three bugfix regressions ride along with the :class:`ShardedSimulator`
unit coverage, each written to fail against the pre-fix code:

* ``run_until`` used to fast-forward ``now`` to the horizon even when it
  broke on ``max_events`` with live events still pending at ``t <= T`` —
  the resumed run then died with "event heap corrupted: time went
  backwards".
* shard applet-id ranges used to collide silently once a shard allocated
  past its stride; now every engine enforces its range with
  :class:`AppletIdRangeError` and fleets derive a stride wide enough for
  the whole corpus.
* ``Simulator.pending`` used to scan the heap (O(n) per call); it is now
  an O(1) live counter, pinned here against the scan on every mutation
  path (schedule / fire / cancel / cancel-after-fire).
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ActionRef,
    AppletIdRangeError,
    EngineConfig,
    FixedPollingPolicy,
    IftttEngine,
    ShardedEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.engine.sharding import APPLET_ID_STRIDE, derive_applet_id_stride
from repro.net import Address, FixedLatency, Network
from repro.obs import MetricsRegistry
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import (
    DEFAULT_LOOKAHEAD,
    Rng,
    ShardedSimulator,
    SimulationError,
    Simulator,
)
from tests.helpers import live_scan


# -- regression: run_until must not fast-forward past pending events ----------


class TestRunUntilCapRegression:
    def test_cap_break_leaves_clock_at_last_fired_event(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, fired.append, t)
        result = sim.run_until(10.0, max_events=2)
        assert result == 2
        assert not result.completed
        assert fired == [1.0, 2.0]
        # The bug: now jumped to 10.0 here, stranding the t=3,4 events
        # in the past.
        assert sim.now == 2.0

    def test_resume_after_cap_break_fires_stranded_events(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, fired.append, t)
        sim.run_until(10.0, max_events=2)
        # Pre-fix this raised SimulationError("event heap corrupted:
        # time went backwards") because now was already 10.0.
        result = sim.run_until(10.0)
        assert result == 2
        assert result.completed
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 10.0

    def test_drained_horizon_still_advances_clock(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        result = sim.run_until(5.0)
        assert result == 1
        assert result.completed
        assert sim.now == 5.0

    def test_empty_run_completes_and_advances(self):
        sim = Simulator()
        result = sim.run_until(3.0)
        assert result == 0
        assert result.completed
        assert sim.now == 3.0

    def test_cap_equal_to_pending_count_completes(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        result = sim.run_until(5.0, max_events=2)
        assert result.completed
        assert sim.now == 5.0

    def test_stop_mid_run_does_not_fast_forward(self):
        sim = Simulator()
        sim.schedule_at(1.0, sim.stop)
        sim.schedule_at(2.0, lambda: None)
        result = sim.run_until(10.0)
        assert result == 1
        assert not result.completed
        assert sim.now == 1.0
        resumed = sim.run_until(10.0)
        assert resumed == 1
        assert resumed.completed

    def test_result_is_int_compatible(self):
        # Callers sum run_until returns; RunResult must behave as int.
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        result = sim.run_until(2.0)
        assert result + 1 == 2
        assert isinstance(result, int)


# -- regression: pending is an O(1) counter equal to the heap scan ------------


class TestPendingCounter:
    def test_schedule_fire_cancel_paths(self):
        sim = Simulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim.pending == live_scan(sim) == 10
        events[3].cancel()
        events[7].cancel()
        assert sim.pending == live_scan(sim) == 8
        sim.run_until(4.0)  # fires t=0..4 minus the canceled t=3
        assert sim.pending == live_scan(sim) == 4
        sim.run()
        assert sim.pending == live_scan(sim) == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == live_scan(sim) == 0

    def test_cancel_after_fire_does_not_underflow(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        event.cancel()  # already fired; must not touch the counter
        assert sim.pending == live_scan(sim) == 1

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        later = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, later.cancel)
        sim.schedule(3.0, lambda: None)
        sim.run_until(1.0)
        assert sim.pending == live_scan(sim) == 1


# -- regression: shard applet-id ranges are enforced, not colliding -----------


def build_engine(limit=None, start=100000):
    sim = Simulator()
    rng = Rng(seed=3, name="range-test")
    net = Network(sim, rng.fork("net"))
    engine = net.add_node(IftttEngine(
        Address("engine.cloud"),
        config=EngineConfig(
            poll_policy=FixedPollingPolicy(5.0), initial_poll_delay=0.5,
        ),
        rng=rng.fork("engine"),
        service_time=0.0,
        applet_id_start=start,
        applet_id_limit=limit,
    ))
    service = net.add_node(PartnerService(
        Address("svc.cloud"), slug="svc", service_time=0.0,
    ))
    service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
    service.add_action(ActionEndpoint(
        slug="record", name="Record", executor=lambda fields: None,
    ))
    net.connect(engine.address, service.address, FixedLatency(0.01))
    engine.publish_service(service)
    authority = OAuthAuthority("svc")
    authority.register_user("alice", "pw")
    engine.connect_service("alice", service, authority, "pw")
    return engine


def install(engine, n=1):
    applets = []
    for i in range(n):
        applets.append(engine.install_applet(
            user="alice", name=f"applet#{i}",
            trigger=TriggerRef("svc", "ping"),
            action=ActionRef("svc", "record", {"n": "{{n}}"}),
        ))
    return applets


class TestAppletIdRangeEnforcement:
    def test_overflowing_the_range_raises_loudly(self):
        engine = build_engine(limit=2)
        install(engine, 2)
        # Pre-fix the third id (100002) silently bled into the next
        # shard's range.
        with pytest.raises(AppletIdRangeError, match=r"\[100000, 100002\)"):
            install(engine, 1)

    def test_unlimited_engine_keeps_allocating(self):
        engine = build_engine(limit=None)
        applets = install(engine, 5)
        assert [a.applet_id for a in applets] == list(range(100000, 100005))

    def test_failed_install_does_not_register_the_applet(self):
        engine = build_engine(limit=1)
        install(engine, 1)
        before = engine.stats()["applets"]
        with pytest.raises(AppletIdRangeError):
            install(engine, 1)
        assert engine.stats()["applets"] == before

    def test_derive_stride_floor(self):
        assert derive_applet_id_stride(None) == APPLET_ID_STRIDE
        assert derive_applet_id_stride(100) == APPLET_ID_STRIDE
        assert derive_applet_id_stride(APPLET_ID_STRIDE) == APPLET_ID_STRIDE

    def test_derive_stride_covers_the_whole_corpus(self):
        # service_hash can land an entire heavy-tailed corpus on one
        # shard, so the stride must cover all of it, not corpus/shards.
        assert derive_applet_id_stride(100001) == 1_000_000
        assert derive_applet_id_stride(250_000) == 1_000_000
        assert derive_applet_id_stride(1_000_000) == 1_000_000
        assert derive_applet_id_stride(1_000_001) == 10_000_000

    def test_sharded_engine_ranges_are_disjoint(self):
        sim = Simulator()
        rng = Rng(seed=5, name="fleet-range")
        net = Network(sim, rng.fork("net"))
        fleet = ShardedEngine(
            net,
            config=EngineConfig(
                poll_policy=FixedPollingPolicy(5.0), initial_poll_delay=0.5,
            ),
            num_shards=4, shard_strategy="round_robin",
            rng=rng.fork("engine"),
            service_time=0.0,
            expected_applets=250_000,
        )
        assert fleet.applet_id_stride == 1_000_000
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
        seen = set()
        for i in range(12):
            applet = fleet.install_applet(
                user="alice", name=f"a{i}",
                trigger=TriggerRef("svc", "ping"),
                action=ActionRef("svc", "record", {}),
            )
            shard = fleet.shard_of(applet.applet_id)
            start = 100000 + shard * fleet.applet_id_stride
            assert start <= applet.applet_id < start + fleet.applet_id_stride
            assert applet.applet_id not in seen
            seen.add(applet.applet_id)
            assert fleet.engine_for(applet.applet_id) is fleet.shards[shard]

    def test_tiny_stride_fleet_fails_loudly_not_silently(self):
        sim = Simulator()
        rng = Rng(seed=5, name="fleet-collide")
        net = Network(sim, rng.fork("net"))
        fleet = ShardedEngine(
            net,
            config=EngineConfig(
                poll_policy=FixedPollingPolicy(5.0), initial_poll_delay=0.5,
            ),
            num_shards=2,
            rng=rng.fork("engine"),
            service_time=0.0,
            applet_id_stride=2,
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
        kwargs = dict(
            user="alice",
            trigger=TriggerRef("svc", "ping"),
            action=ActionRef("svc", "record", {}),
        )
        fleet.install_applet(name="a0", **kwargs)
        fleet.install_applet(name="a1", **kwargs)
        with pytest.raises(AppletIdRangeError):
            fleet.install_applet(name="a2", **kwargs)


# -- ShardedSimulator unit tests ----------------------------------------------


class TestShardedSimulatorBasics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedSimulator(0)
        with pytest.raises(ValueError):
            ShardedSimulator(2, lookahead=0.0)

    @pytest.mark.parametrize("lookahead", [math.nan, math.inf, -math.inf, True, False, -0.5])
    def test_lookahead_must_be_a_finite_positive_width(self, lookahead):
        # A NaN or infinite width used to collapse a coupled run into one
        # epoch that then died at the first drain, blaming the sender.
        with pytest.raises(ValueError, match="lookahead"):
            ShardedSimulator(2, lookahead=lookahead)

    def test_integer_lookahead_is_a_width(self):
        assert ShardedSimulator(2, lookahead=1).lookahead == 1.0

    def test_clock_is_the_slowest_shard(self):
        stepper = ShardedSimulator(3)
        stepper.sims[0].schedule_at(1.0, lambda: None)
        stepper.run_until(5.0)
        assert stepper.now == 5.0
        assert all(sim.now == 5.0 for sim in stepper.sims)

    def test_fired_and_pending_aggregate_across_shards(self):
        stepper = ShardedSimulator(2)
        stepper.sims[0].schedule_at(1.0, lambda: None)
        stepper.sims[1].schedule_at(2.0, lambda: None)
        stepper.sims[1].schedule_at(9.0, lambda: None)
        assert stepper.pending == 3
        stepper.run_until(5.0)
        assert stepper.fired_count == 2
        assert stepper.pending == 1

    def test_uncoupled_fleet_steps_in_one_epoch(self):
        stepper = ShardedSimulator(4)
        for sim in stepper.sims:
            sim.schedule_at(1.0, lambda: None)
        stepper.run_until(100.0)
        assert stepper.epochs == 1

    def test_coupled_fleet_honors_the_lookahead_barrier(self):
        stepper = ShardedSimulator(2, lookahead=1.0)
        stepper.mark_coupled()
        assert stepper.coupled
        stepper.run_until(10.0)
        # 10s of coupled time at a 1s epoch width = 10 barriers.
        assert stepper.epochs == 10

    def test_run_drains_heaps_and_mailboxes(self):
        stepper = ShardedSimulator(2)
        fired = []
        stepper.sims[0].schedule_at(
            1.0, lambda: stepper.post(1, 2.0, fired.append, "hop"),
        )
        stepper.run()
        assert fired == ["hop"]
        assert stepper.pending == 0

    def test_run_reports_the_epoch_cap_and_a_later_run_finishes(self):
        stepper = ShardedSimulator(2, lookahead=1.0)
        stepper.mark_coupled()
        fired = []
        stepper.sims[0].schedule_at(1.0, fired.append, "first")
        stepper.sims[0].schedule_at(
            5.0, lambda: stepper.post(1, 6.0, fired.append, "hop", src=0),
        )
        capped = stepper.run(max_epochs=1)
        assert capped == 1 and not capped.completed
        assert fired == ["first"] and stepper.pending == 1
        # Capped again with both heaps empty and the hop still in shard
        # 0's outbox: that is pending work too.
        capped = stepper.run(max_epochs=1)
        assert capped == 1 and not capped.completed
        assert fired == ["first"] and stepper.pending == 0
        resumed = stepper.run()
        assert resumed == 1 and resumed.completed
        assert fired == ["first", "hop"]

    def test_drained_run_is_completed(self):
        stepper = ShardedSimulator(2)
        stepper.sims[1].schedule_at(1.0, lambda: None)
        result = stepper.run()
        assert result == 1 and result.completed
        # The cap landing exactly on the last epoch is still a drained run.
        stepper.sims[0].schedule_at(2.0, lambda: None)
        assert stepper.run(max_epochs=1).completed


class TestMailboxes:
    def test_controller_post_lands_on_destination_shard(self):
        stepper = ShardedSimulator(3)
        fired = []
        stepper.post(2, 1.5, fired.append, "x")
        stepper.run_until(2.0)
        assert fired == ["x"]
        assert stepper.mailbox_messages == 1
        assert stepper.sims[2].fired_count == 1

    def test_broadcast_reaches_every_shard(self):
        stepper = ShardedSimulator(3)
        fired = []
        stepper.broadcast(1.0, fired.append, "all")
        stepper.run_until(2.0)
        assert fired == ["all"] * 3
        assert stepper.mailbox_messages == 3

    def test_drain_order_is_deliver_at_then_src_then_seq(self):
        stepper = ShardedSimulator(3)
        order = []
        # Same destination and deliver_at from different sources, posted
        # in scrambled order: the drain key must ignore append order.
        stepper.post(0, 2.0, order.append, "src1-a", src=1)
        stepper.post(0, 2.0, order.append, "src0-a", src=0)
        stepper.post(0, 1.0, order.append, "early", src=2)
        stepper.post(0, 2.0, order.append, "src1-b", src=1)
        stepper.run_until(3.0)
        assert order == ["early", "src0-a", "src1-a", "src1-b"]

    def test_lookahead_floor_violation_is_loud(self):
        stepper = ShardedSimulator(2, lookahead=0.5)
        stepper.mark_coupled()
        stepper.sims[1].schedule_at(4.0, lambda: None)
        stepper.run_until(4.0)
        # Shard 1's clock is now 4.0; a message for t=1.0 violates the
        # conservative contract and must not be silently reordered.
        stepper.post(1, 1.0, lambda: None, src=0)
        with pytest.raises(SimulationError, match="lookahead floor"):
            stepper.run_until(5.0)

    def test_cross_shard_ping_pong_is_repeatable(self):
        def run():
            stepper = ShardedSimulator(2, lookahead=0.1)
            stepper.mark_coupled()
            trace = []

            def hop(shard, n):
                trace.append((round(stepper.sims[shard].now, 6), shard, n))
                if n < 20:
                    stepper.post(
                        1 - shard, stepper.sims[shard].now + 0.1,
                        hop, 1 - shard, n + 1, src=shard,
                    )

            stepper.post(0, 0.1, hop, 0, 0)
            stepper.run_until(5.0)
            return trace, stepper.mailbox_messages, stepper.epochs

        first = run()
        assert first == run()
        assert first[0][0] == (0.1, 0, 0)
        assert len(first[0]) == 21


class TestDefaultLookahead:
    def test_exported_and_positive(self):
        assert DEFAULT_LOOKAHEAD > 0
        assert ShardedSimulator(2).lookahead == DEFAULT_LOOKAHEAD


# -- horizons that are not a time ---------------------------------------------


class TestHorizonValidation:
    def test_nan_horizon_is_refused_by_the_kernel(self):
        # It used to fire every pending event, even one at t = 1e6, and
        # report the run completed.
        sim = Simulator()
        fired = []
        sim.schedule_at(1e6, fired.append, "far")
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until(math.nan)
        assert fired == [] and sim.now == 0.0

    def test_nan_horizon_is_refused_by_the_stepper(self):
        # It used to spin for ever, so the call runs in a child with a
        # timeout: a hang fails the test instead of the suite.
        code = textwrap.dedent("""
            import math
            from repro.simcore import ShardedSimulator, SimulationError
            for coupled in (False, True):
                stepper = ShardedSimulator(2, lookahead=0.5)
                if coupled:
                    stepper.mark_coupled()
                try:
                    stepper.run_until(math.nan)
                except SimulationError as exc:
                    assert "nan" in str(exc), exc
                else:
                    raise SystemExit("run_until(nan) returned")
        """)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def test_past_horizon_is_refused_by_the_stepper(self):
        stepper = ShardedSimulator(2, lookahead=0.5)
        stepper.mark_coupled()
        stepper.run_until(3.0)
        with pytest.raises(SimulationError, match=r"t=2\.0 < now=3\.0"):
            stepper.run_until(2.0)
        assert stepper.now == 3.0

    def test_horizon_equal_to_now_is_a_no_op(self):
        stepper = ShardedSimulator(2, lookahead=0.5)
        stepper.mark_coupled()
        stepper.run_until(3.0)
        epochs = stepper.epochs
        assert stepper.run_until(3.0) == 0
        assert stepper.epochs == epochs and stepper.now == 3.0


# -- the stepper against the loop that entered every shard ---------------------


class _ReferenceStepper(ShardedSimulator):
    """The epoch loop before empty epochs were skipped: every shard's
    ``run_until`` is entered at every barrier.  Slow, and the oracle."""

    def _step_epoch(self, horizon):
        return sum(sim.run_until(horizon) for sim in self.sims)

    def run_until(self, time):
        fired = 0
        lookahead = self.lookahead
        while True:
            self._drain_mailboxes()
            now = self.now
            if now >= time:
                break
            horizon = time if not self._coupled else min(time, now + lookahead)
            fired += self._step_epoch(horizon)
            self.epochs += 1
        return fired


#: Event instants are multiples of 1/8 s, so with a binary lookahead they
#: fall exactly on barriers; a later band leaves long idle gaps.
_GRID = 0.125
_instants = st.one_of(
    st.integers(0, 96).map(lambda n: n * _GRID),
    st.integers(320, 480).map(lambda n: n * _GRID),
)


@st.composite
def _epoch_schedules(draw):
    shards = draw(st.integers(1, 4))
    shard = st.integers(0, shards - 1)
    events = draw(st.lists(
        st.tuples(
            shard, _instants, st.sampled_from(["plain", "post", "stop", "chain"]),
            shard, st.integers(1, 3),
        ),
        max_size=24,
    ))
    mail = draw(st.lists(st.tuples(shard, _instants), max_size=4))
    event_times = [event[1] for event in events]
    targets = draw(st.lists(
        _instants | st.sampled_from(event_times) if event_times else _instants,
        min_size=1, max_size=6,
    ))
    return {
        "shards": shards,
        "lookahead": draw(st.sampled_from([0.25, 0.5, 1.0, 0.1, 0.3])),
        "coupled": draw(st.booleans() | st.just(True)),
        "events": events,
        "mail": mail,
        "targets": sorted(targets),
    }


def _drive(cls, spec):
    """Run one drawn schedule on a ``cls`` stepper; return all it shows."""
    stepper = cls(spec["shards"], lookahead=spec["lookahead"])
    if spec["coupled"]:
        stepper.mark_coupled()
    registries = []
    for sim in stepper.sims:
        sim.metrics = MetricsRegistry()
        registries.append(sim.metrics)
    lookahead = stepper.lookahead
    fires = []

    def arrive(shard, label):
        fires.append((shard, stepper.sims[shard].now, label))

    def fire(shard, label, kind, dst, k):
        sim = stepper.sims[shard]
        # The fleet clock reads every shard's clock mid-epoch, so a
        # shard left behind by a skipped or crossed epoch shows here.
        fires.append((shard, sim.now, label, stepper.now))
        if kind == "post":
            # k = 1 from an event on a barrier is mail due exactly at the
            # next barrier.
            stepper.post(dst, sim.now + k * lookahead, arrive, dst, label + ">mail", src=shard)
        elif kind == "stop":
            sim.stop()
        elif kind == "chain":
            sim.schedule(k * _GRID, fire, shard, label + ">chain", "plain", dst, k)

    for index, (shard, at, kind, dst, k) in enumerate(spec["events"]):
        stepper.sims[shard].schedule_at(at, fire, shard, f"e{index}", kind, dst, k)
    for index, (dst, at) in enumerate(spec["mail"]):
        stepper.post(dst, at, arrive, dst, f"m{index}")

    calls = []
    for target in spec["targets"]:
        try:
            outcome = ("fired", int(stepper.run_until(target)))
        except SimulationError as exc:
            outcome = ("raised", str(exc))
        calls.append((
            target, outcome, [sim.now for sim in stepper.sims],
            stepper.epochs, stepper.mailbox_messages,
        ))
        if outcome[0] == "raised":
            break
    counters = [
        (registry.total("sim.events_fired"), registry.total("sim.runs"))
        for registry in registries
    ]
    return fires, calls, counters, stepper.fired_count


class TestAgainstTheReferenceStepper:
    @settings(max_examples=200, deadline=None)
    @given(spec=_epoch_schedules())
    def test_same_fires_clocks_and_counters(self, spec):
        assert _drive(ShardedSimulator, spec) == _drive(_ReferenceStepper, spec)

    def test_a_shard_whose_only_event_is_at_the_target(self):
        spec = {
            "shards": 3, "lookahead": 0.5, "coupled": True,
            "events": [(1, 4.0, "plain", 0, 1)], "mail": [], "targets": [4.0],
        }
        result = _drive(ShardedSimulator, spec)
        assert result == _drive(_ReferenceStepper, spec)
        fires, calls, _counters, _fired = result
        assert fires == [(1, 4.0, "e0", 3.5)]
        assert calls == [(4.0, ("fired", 1), [4.0, 4.0, 4.0], 8, 0)]

    def test_mail_due_exactly_at_a_barrier(self):
        spec = {
            "shards": 2, "lookahead": 0.5, "coupled": True,
            "events": [(0, 1.0, "post", 1, 1), (1, 1.5, "plain", 0, 1)],
            "mail": [], "targets": [3.0],
        }
        result = _drive(ShardedSimulator, spec)
        assert result == _drive(_ReferenceStepper, spec)
        # The mail lands at the 1.5 barrier, after shard 1's own event
        # there (scheduled first, so it fires first).
        assert result[0] == [(0, 1.0, "e0", 0.5), (1, 1.5, "e1", 1.5), (1, 1.5, "e0>mail")]

    def test_empty_epochs_are_crossed_not_entered(self):
        stepper = ShardedSimulator(4, lookahead=1.0)
        stepper.mark_coupled()
        entered = [0] * 4

        def counting(sim, index):
            run_until = sim.run_until

            def wrapped(horizon, max_events=None):
                entered[index] += 1
                return run_until(horizon, max_events)

            sim.run_until = wrapped

        for index, sim in enumerate(stepper.sims):
            counting(sim, index)
        stepper.sims[0].schedule_at(0.5, lambda: None)
        stepper.sims[2].schedule_at(50.0, lambda: None)
        assert stepper.run_until(100.0) == 2
        # The grid is unchanged (one epoch a second), but only the two
        # epochs with work enter a shard, and only the shard that has it.
        assert stepper.epochs == 100
        assert entered == [1, 0, 1, 0]
        assert [sim.now for sim in stepper.sims] == [100.0] * 4
