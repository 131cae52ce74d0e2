"""Tests for declarative fault plans and the fault injector."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    link_down,
    link_latency,
    link_loss,
    service_brownout,
    service_flap,
    service_outage,
)
from repro.net import Address, FixedLatency, HttpNode, Network
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="meteor_strike", at=0.0, duration=1.0).validate()

    def test_negative_times_rejected(self):
        with pytest.raises(FaultPlanError):
            service_outage("svc", at=-1.0, duration=10.0)
        with pytest.raises(FaultPlanError):
            service_outage("svc", at=0.0, duration=0.0)

    def test_service_faults_need_slug(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="service_outage", at=0.0, duration=1.0).validate()

    def test_link_faults_need_endpoints(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="link_down", at=0.0, duration=1.0, a="x").validate()

    def test_brownout_error_rate_bounds(self):
        with pytest.raises(FaultPlanError):
            service_brownout("svc", at=0.0, duration=1.0, error_rate=1.5)

    def test_loss_bounds(self):
        with pytest.raises(FaultPlanError):
            link_loss("a", "b", at=0.0, duration=1.0, loss=0.0)

    def test_flap_duty_bounds(self):
        with pytest.raises(FaultPlanError):
            service_flap("svc", at=0.0, duration=10.0, duty=1.0)

    def test_latency_multiplier_bounds(self):
        with pytest.raises(FaultPlanError):
            link_latency("a", "b", at=0.0, duration=1.0, multiplier=0.5)


class TestMalformedSpecsFailAtTheBoundary:
    """Every malformed field is a :class:`FaultPlanError` that names it."""

    @pytest.mark.parametrize("field, value", [
        ("at", float("nan")),
        ("at", float("inf")),
        ("at", "30"),
        ("at", None),
        ("duration", True),
        ("duration", float("nan")),
        ("duration", [10]),
    ])
    def test_non_numeric_time_rejected(self, field, value):
        data = {"kind": "service_outage", "service": "x", "at": 1.0, "duration": 2.0}
        data[field] = value
        with pytest.raises(FaultPlanError, match=repr(field)):
            FaultSpec.from_dict(data)

    @pytest.mark.parametrize("data, field", [
        ({"kind": "service_brownout", "error_rate": False}, "error_rate"),
        ({"kind": "service_brownout", "extra_latency": float("nan")}, "extra_latency"),
        ({"kind": "service_flap", "period": "20"}, "period"),
        ({"kind": "service_flap", "duty": float("nan")}, "duty"),
    ])
    def test_non_numeric_parameter_rejected(self, data, field):
        data = {"service": "x", "at": 0.0, "duration": 1.0, **data}
        with pytest.raises(FaultPlanError, match=repr(field)):
            FaultSpec.from_dict(data)

    def test_non_string_target_rejected(self):
        with pytest.raises(FaultPlanError, match="'service'"):
            FaultSpec.from_dict({"kind": "service_outage", "service": 7, "at": 0,
                                 "duration": 1})
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec.from_dict({"kind": ["service_outage"], "at": 0, "duration": 1})

    @pytest.mark.parametrize("data, field", [
        ({"kind": "service_outage", "service": "x", "loss": 0.5}, "loss"),
        ({"kind": "service_outage", "service": "x", "a": "h1"}, "a"),
        ({"kind": "service_brownout", "service": "x", "duty": 0.2}, "duty"),
        ({"kind": "service_flap", "service": "x", "error_rate": 0.3}, "error_rate"),
        ({"kind": "link_down", "a": "h1", "b": "h2", "service": "x"}, "service"),
        ({"kind": "link_loss", "a": "h1", "b": "h2", "loss": 0.1, "extra": 1.0}, "extra"),
        ({"kind": "link_latency", "a": "h1", "b": "h2", "loss": 0.1}, "loss"),
    ])
    def test_parameter_the_kind_does_not_read_rejected(self, data, field):
        with pytest.raises(FaultPlanError, match=f"does not read .*'{field}'"):
            FaultSpec.from_dict({"at": 0.0, "duration": 1.0, **data})

    def test_neutral_values_of_unread_parameters_accepted(self):
        spec = FaultSpec.from_dict({"kind": "service_outage", "service": "x", "at": 0,
                                    "duration": 1, "loss": 0.0, "period": 20})
        assert spec == service_outage("x", at=0, duration=1)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FaultPlanError, match="'x'"):
            FaultPlan.from_json('{"faults": [], "x": 1}')


class TestPlanSerialization:
    def plan(self):
        return FaultPlan((
            service_outage("hue", at=10.0, duration=60.0),
            service_brownout("wemo", at=5.0, duration=30.0,
                             error_rate=0.25, extra_latency=0.4),
            link_down("engine.cloud", "core.internet", at=40.0, duration=20.0),
            link_loss("a.cloud", "b.cloud", at=1.0, duration=9.0, loss=0.1),
            service_flap("nest", at=0.0, duration=100.0, period=10.0, duty=0.3),
        ))

    def test_round_trip(self):
        plan = self.plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_bare_list_accepted(self):
        text = '[{"kind": "service_outage", "at": 1, "duration": 2, "service": "x"}]'
        plan = FaultPlan.from_json(text)
        assert len(plan) == 1 and plan.specs[0].service == "x"

    def test_neutral_defaults_dropped_from_json(self):
        spec = service_outage("hue", at=10.0, duration=60.0)
        assert set(spec.to_dict()) == {"kind", "at", "duration", "service"}

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec.from_dict({"kind": "service_outage", "at": 0, "duration": 1,
                                 "service": "x", "severity": 11})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"not_faults": []}')

    def test_end_time_and_services(self):
        plan = self.plan()
        assert plan.end_time == 100.0
        assert plan.services() == ["hue", "nest", "wemo"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self.plan().to_json())
        assert FaultPlan.from_file(str(path)) == self.plan()


def build_world():
    sim = Simulator()
    net = Network(sim, Rng(5))
    client = net.add_node(HttpNode(Address("client.test")))
    service = net.add_node(PartnerService(Address("svc.test"), slug="svc",
                                          service_time=0.0))
    service.add_trigger(TriggerEndpoint(slug="t", name="T"))
    service.add_action(ActionEndpoint(slug="a", name="A", executor=lambda f: None))
    net.connect(client.address, service.address, FixedLatency(0.01))
    injector = FaultInjector(sim, net, services=(service,), rng=Rng(6, name="faults"))
    return sim, net, client, service, injector


class TestInjector:
    def test_unknown_service_fails_fast(self):
        sim, net, client, service, injector = build_world()
        with pytest.raises(FaultPlanError):
            injector.apply(FaultPlan((service_outage("ghost", at=0.0, duration=1.0),)))

    def test_unknown_link_fails_fast(self):
        sim, net, client, service, injector = build_world()
        with pytest.raises(FaultPlanError):
            injector.apply(FaultPlan((link_down("client.test", "ghost.test",
                                                at=0.0, duration=1.0),)))

    def test_outage_window(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((service_outage("svc", at=10.0, duration=20.0),)))
        sim.run_until(5.0)
        assert not service.outage
        sim.run_until(15.0)
        assert service.outage
        sim.run_until(35.0)
        assert not service.outage
        assert injector.activations == 1 and injector.deactivations == 1

    def test_brownout_latency_saved_and_restored(self):
        sim, net, client, service, injector = build_world()
        service.service_time = 0.05
        injector.apply(FaultPlan((
            service_brownout("svc", at=1.0, duration=4.0,
                             error_rate=1.0, extra_latency=0.5),
        )))
        sim.run_until(2.0)
        assert service.service_time == pytest.approx(0.55)
        assert service.faults is not None and service.faults.error_rate == 1.0
        sim.run_until(6.0)
        assert service.service_time == pytest.approx(0.05)
        assert service.faults.error_rate == 0.0

    def test_brownout_rejects_requests(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((
            service_brownout("svc", at=0.0, duration=100.0, error_rate=1.0),
        )))
        got = []
        sim.schedule(1.0, lambda: client.get(service.address, "/ifttt/v1/status",
                                             on_response=got.append))
        sim.run_until(5.0)
        assert got[0].status == 503
        assert service.requests_rejected_by_faults == 1

    def test_link_down_window_partitions(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((
            link_down("client.test", "svc.test", at=2.0, duration=5.0),
        )))
        got = []
        sim.schedule(3.0, lambda: client.get(service.address, "/ifttt/v1/status",
                                             on_response=got.append))
        sim.schedule(10.0, lambda: client.get(service.address, "/ifttt/v1/status",
                                              on_response=got.append))
        sim.run_until(20.0)
        assert got[0].status == 503          # refused during the partition
        assert got[1].ok                     # healed

    def test_link_loss_drops_messages(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((
            link_loss("client.test", "svc.test", at=0.0, duration=100.0, loss=1.0),
        )))
        got = []
        sim.schedule(1.0, lambda: client.get(service.address, "/ifttt/v1/status",
                                             on_response=got.append, timeout=5.0))
        sim.run_until(10.0)
        assert got[0].status == 599          # lost in flight => classic timeout
        assert net.faults.messages_lost > 0
        assert net.messages_dropped > 0

    def test_link_latency_inflates_delay(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((
            link_latency("client.test", "svc.test", at=0.0, duration=100.0,
                         multiplier=1.0, extra=1.0),
        )))
        got = []
        sim.schedule(1.0, lambda: client.get(service.address, "/ifttt/v1/status",
                                             on_response=got.append))
        sim.run_until(10.0)
        # 1 s extra per direction on top of the 10 ms link
        assert got[0].elapsed == pytest.approx(2.02)

    def test_flap_toggles_outage(self):
        sim, net, client, service, injector = build_world()
        injector.apply(FaultPlan((
            service_flap("svc", at=0.0, duration=40.0, period=20.0, duty=0.5),
        )))
        states = []
        for t in (5.0, 15.0, 25.0, 35.0, 45.0):
            sim.schedule(t - sim.now if t > sim.now else 0.0, lambda: None)
            sim.run_until(t)
            states.append(service.outage)
        assert states == [True, False, True, False, False]  # healthy after window

    def test_zero_cost_hooks_absent_by_default(self):
        sim, net, client, service, injector = build_world()
        assert net.faults is None
        assert service.faults is None
        injector.apply(FaultPlan((service_outage("svc", at=0.0, duration=1.0),)))
        sim.run_until(5.0)
        # outage reuses set_outage; no per-message hook was installed
        assert net.faults is None
