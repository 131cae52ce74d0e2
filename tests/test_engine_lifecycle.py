"""Tests for applet uninstall, engine stats, and corpus persistence."""

import pytest

from repro.engine import (
    ActionRef,
    Applet,
    DuplicateIdentityError,
    EngineConfig,
    FixedPollingPolicy,
    IftttEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.ecosystem.corpus import Corpus
from repro.net import Address, FixedLatency, Network
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, Rng(81))
    engine = net.add_node(IftttEngine(
        Address("engine.cloud"),
        config=EngineConfig(poll_policy=FixedPollingPolicy(5.0), initial_poll_delay=0.5),
        rng=Rng(2), service_time=0.0,
    ))
    service = net.add_node(PartnerService(Address("svc.cloud"), slug="svc", service_time=0.0))
    net.connect(engine.address, service.address, FixedLatency(0.01))
    executed = []
    service.add_trigger(TriggerEndpoint(slug="t", name="T"))
    service.add_action(ActionEndpoint(slug="a", name="A", executor=executed.append))
    engine.publish_service(service)
    authority = OAuthAuthority("svc")
    authority.register_user("u", "pw")
    engine.connect_service("u", service, authority, "pw")
    return sim, engine, service, executed


def install(engine):
    return engine.install_applet(user="u", name="p",
                                 trigger=TriggerRef("svc", "t"),
                                 action=ActionRef("svc", "a"))


class TestUninstall:
    def test_uninstall_stops_polling_and_execution(self, world):
        sim, engine, service, executed = world
        applet = install(engine)
        sim.run_until(2.0)
        engine.uninstall_applet(applet.applet_id)
        service.ingest_event("t", {"n": 1})
        sim.run_until(60.0)
        assert executed == []
        assert engine.applets == []

    def test_uninstall_unknown_rejected(self, world):
        _, engine, _, _ = world
        with pytest.raises(KeyError):
            engine.uninstall_applet(999)

    def test_uninstall_returns_disabled_applet(self, world):
        sim, engine, _, _ = world
        applet = install(engine)
        returned = engine.uninstall_applet(applet.applet_id)
        assert returned is applet
        assert not applet.enabled

    def test_identity_mapping_cleaned(self, world):
        sim, engine, service, _ = world
        applet = install(engine)
        identity = applet.trigger_identity
        engine.uninstall_applet(applet.applet_id)
        assert identity not in engine._by_identity

    def test_sibling_identity_survives_uninstall(self, world):
        """Two installs of the same (user, trigger, fields) with different
        applet ids have distinct identities; removing one leaves the other."""
        sim, engine, service, executed = world
        first = install(engine)
        second = install(engine)
        sim.run_until(2.0)
        engine.uninstall_applet(first.applet_id)
        service.ingest_event("t", {"n": 1})
        sim.run_until(30.0)
        assert len(executed) == 1  # the surviving applet executed


class TestIdentityIndex:
    """``_by_identity`` maps each trigger identity to the one applet id
    polling it."""

    def test_each_identity_maps_to_its_applet(self, world):
        _, engine, _, _ = world
        applets = [install(engine) for _ in range(3)]
        assert engine._by_identity == {
            applet.trigger_identity: applet.applet_id for applet in applets
        }

    def test_uninstall_leaves_no_entry(self, world):
        sim, engine, _, _ = world
        applets = [install(engine) for _ in range(3)]
        sim.run_until(2.0)
        for applet in applets:
            engine.uninstall_applet(applet.applet_id)
        assert engine._by_identity == {}

    def test_duplicate_identity_is_refused(self, world, monkeypatch):
        sim, engine, _, _ = world
        first = install(engine)
        index, runtimes = dict(engine._by_identity), dict(engine._applets)
        pending = sim.pending
        # an identity hashes its applet id: only a collision repeats one
        taken = first.trigger_identity
        monkeypatch.setattr(Applet, "trigger_identity", property(lambda _: taken))
        with pytest.raises(DuplicateIdentityError) as refused:
            engine.install_applet(
                user="u", name="twin", trigger=TriggerRef("svc", "t"), action=ActionRef("svc", "a")
            )
        message = str(refused.value)
        assert f"applet #{first.applet_id + 1} ('twin')" in message
        assert f"applet #{first.applet_id} ('p')" in message
        assert engine._by_identity == index and engine._applets == runtimes
        assert sim.pending == pending  # no first poll was scheduled
        monkeypatch.undo()
        assert install(engine).applet_id == first.applet_id + 2


class TestEngineStats:
    def test_stats_snapshot(self, world):
        sim, engine, service, _ = world
        install(engine)
        sim.run_until(12.0)
        stats = engine.stats()
        assert stats["services"] == 1
        assert stats["applets"] == 1
        assert stats["applets_enabled"] == 1
        assert stats["polls_sent"] == engine.polls_sent > 0
        assert stats["actions_dispatched"] == 0

    def test_stats_reflect_disable(self, world):
        sim, engine, _, _ = world
        applet = install(engine)
        engine.disable_applet(applet.applet_id)
        assert engine.stats()["applets_enabled"] == 0


class TestCorpusPersistence:
    def test_round_trip_preserves_summary(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        small_corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.summary() == small_corpus.summary()
        assert loaded.summary(0) == small_corpus.summary(0)

    def test_round_trip_preserves_records(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        small_corpus.save(path)
        loaded = Corpus.load(path)
        alexa = loaded.service("amazon_alexa")
        assert alexa.name == "Amazon Alexa"
        assert [t.name for t in alexa.triggers] == [
            t.name for t in small_corpus.service("amazon_alexa").triggers
        ]
        applet_id = next(iter(small_corpus.applets))
        assert vars(loaded.applet(applet_id)) == vars(small_corpus.applet(applet_id))
