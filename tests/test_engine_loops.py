"""Tests for static and runtime loop detection, and local execution."""

import pytest

from repro.engine import (
    ActionRef,
    Applet,
    HybridScheduler,
    RuntimeLoopDetector,
    StaticLoopAnalyzer,
    TriggerRef,
)
from repro.net import Address
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.services.endpoints import field_channel, static_channels


def make_services():
    """Two services whose channels can close a loop."""
    gmail = PartnerService(Address("gmail.cloud"), slug="gmail")
    gmail.add_trigger(TriggerEndpoint(
        slug="new_email", name="New email",
        reads_channels=static_channels(("inbox", "me")),
    ))
    gmail.add_action(ActionEndpoint(
        slug="send_email", name="Send email",
        writes_channels=static_channels(("inbox", "me")),
    ))
    sheets = PartnerService(Address("sheets.cloud"), slug="sheets")
    sheets.add_trigger(TriggerEndpoint(
        slug="new_row", name="New row",
        reads_channels=field_channel("sheet", "sheet"),
    ))
    sheets.add_action(ActionEndpoint(
        slug="add_row", name="Add row",
        writes_channels=field_channel("sheet", "sheet"),
    ))
    return {"gmail": gmail, "sheets": sheets}


def applet(applet_id, trigger, action, tf=None, af=None):
    return Applet(
        applet_id=applet_id, name=f"a{applet_id}", user="alice",
        trigger=TriggerRef(trigger[0], trigger[1], tf or {}),
        action=ActionRef(action[0], action[1], af or {}),
    )


class TestStaticLoopAnalyzer:
    def test_two_applet_cycle_found(self):
        analyzer = StaticLoopAnalyzer(make_services())
        forward = applet(1, ("gmail", "new_email"), ("sheets", "add_row"), af={"sheet": "log"})
        reverse = applet(2, ("sheets", "new_row"), ("gmail", "send_email"), tf={"sheet": "log"})
        findings = analyzer.find_cycles([forward, reverse])
        assert len(findings) == 1
        assert {a.applet_id for a in findings[0].applets} == {1, 2}
        assert "->" in findings[0].describe()

    def test_field_mismatch_breaks_cycle(self):
        analyzer = StaticLoopAnalyzer(make_services())
        forward = applet(1, ("gmail", "new_email"), ("sheets", "add_row"), af={"sheet": "log"})
        reverse = applet(2, ("sheets", "new_row"), ("gmail", "send_email"), tf={"sheet": "other"})
        assert analyzer.find_cycles([forward, reverse]) == []

    def test_self_loop_found(self):
        analyzer = StaticLoopAnalyzer(make_services())
        narcissist = applet(1, ("gmail", "new_email"), ("gmail", "send_email"))
        findings = analyzer.find_cycles([narcissist])
        assert len(findings) == 1
        assert len(findings[0].applets) == 1

    def test_three_applet_cycle(self):
        services = make_services()
        phone = PartnerService(Address("phone.cloud"), slug="phone")
        phone.add_trigger(TriggerEndpoint(
            slug="notified", name="Notified",
            reads_channels=static_channels(("phone", "me")),
        ))
        phone.add_action(ActionEndpoint(
            slug="notify", name="Notify",
            writes_channels=static_channels(("phone", "me")),
        ))
        services["phone"] = phone
        analyzer = StaticLoopAnalyzer(services)
        chain = [
            applet(1, ("gmail", "new_email"), ("sheets", "add_row"), af={"sheet": "s"}),
            applet(2, ("sheets", "new_row"), ("phone", "notify"), tf={"sheet": "s"}),
            applet(3, ("phone", "notified"), ("gmail", "send_email")),
        ]
        findings = analyzer.find_cycles(chain)
        assert len(findings) == 1
        assert len(findings[0].applets) == 3

    def test_implicit_loop_needs_external_knowledge(self):
        """The paper's Sheets-notification loop: invisible without the edge."""
        analyzer = StaticLoopAnalyzer(make_services())
        only = applet(1, ("gmail", "new_email"), ("sheets", "add_row"), af={"sheet": "log"})
        assert analyzer.find_cycles([only]) == []
        analyzer.add_external_edge(("sheet", "log"), ("inbox", "me"))
        findings = analyzer.find_cycles([only])
        assert len(findings) == 1

    def test_external_edges_propagate_transitively(self):
        analyzer = StaticLoopAnalyzer(make_services())
        analyzer.add_external_edge(("sheet", "log"), ("middle", "x"))
        analyzer.add_external_edge(("middle", "x"), ("inbox", "me"))
        only = applet(1, ("gmail", "new_email"), ("sheets", "add_row"), af={"sheet": "log"})
        assert len(analyzer.find_cycles([only])) == 1

    def test_unknown_service_yields_no_channels(self):
        analyzer = StaticLoopAnalyzer({})
        orphan = applet(1, ("ghost", "t"), ("ghost", "a"))
        assert analyzer.find_cycles([orphan]) == []


class TestRuntimeLoopDetector:
    """More than 4 executions of one applet within 1,800 s flag a loop."""

    def test_trips_over_threshold(self):
        detector = RuntimeLoopDetector()
        assert not any(detector.observe(1, t) for t in (0, 300, 600, 900))
        assert detector.observe(1, 1200)
        assert 1 in detector.flagged

    def test_window_slides(self):
        detector = RuntimeLoopDetector()
        for t in (0, 300, 600, 900):
            detector.observe(1, t)
        # 1,900 s after the last one the window is empty again
        assert not detector.observe(1, 2800)
        assert detector.rate(1) == 1

    def test_applets_tracked_independently(self):
        detector = RuntimeLoopDetector()
        for t in (0, 1, 2, 3):
            detector.observe(1, t)
            detector.observe(2, t)
        assert detector.observe(1, 4)
        assert detector.flagged == {1}

    def test_reset(self):
        detector = RuntimeLoopDetector()
        for t in range(5):
            detector.observe(1, t)
        assert 1 in detector.flagged
        detector.reset(1)
        assert detector.flagged == set()
        assert detector.rate(1) == 0


class TestHybridScheduler:
    def _applets(self):
        local = applet(1, ("wemo", "switch_activated"), ("philips_hue", "turn_on_lights"))
        mixed = applet(2, ("wemo", "switch_activated"), ("google_sheets", "add_row"))
        cloud = applet(3, ("gmail", "new_email"), ("google_sheets", "add_row"))
        return local, mixed, cloud

    def test_placement_rules(self):
        local, mixed, cloud = self._applets()
        scheduler = HybridScheduler({
            ("wemo", "switch_activated"), ("philips_hue", "turn_on_lights"),
        })
        assert scheduler.placement(local) == "local"
        assert scheduler.placement(mixed) == "cloud"
        assert scheduler.placement(cloud) == "cloud"

    def test_plan_and_fraction(self):
        local, mixed, cloud = self._applets()
        scheduler = HybridScheduler({
            ("wemo", "switch_activated"), ("philips_hue", "turn_on_lights"),
        })
        plan = scheduler.plan([local, mixed, cloud])
        assert plan[1] == "local"
        assert scheduler.local_fraction([local, mixed, cloud]) == pytest.approx(1 / 3)

    def test_failover(self):
        local, _, _ = self._applets()
        scheduler = HybridScheduler({
            ("wemo", "switch_activated"), ("philips_hue", "turn_on_lights"),
        })
        scheduler.mark_local_engine_down()
        assert scheduler.placement(local) == "cloud"
        scheduler.mark_local_engine_up()
        assert scheduler.placement(local) == "local"

    def test_empty_applets_fraction(self):
        scheduler = HybridScheduler(set())
        assert scheduler.local_fraction([]) == 0.0
